// Package adaptive holds the Budgeter, which spreads a server-wide byte
// budget across ingest sessions by widening their precision widths, in
// the manner of Olston, Jiang and Widom ("Adaptive filters for
// continuous queries over distributed data streams", SIGMOD 2003 — the
// paper's reference [21]).
package adaptive

import (
	"errors"
	"fmt"
)

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("adaptive: invalid configuration")

// Budgeter supervises the *byte rate* of ingest sessions it can only
// advise, and answers "how much should each session's ε widen right
// now?". Redistribution is burden-proportional: when the observed total
// rate exceeds the budget, sessions are assigned widening scales (≥ 1,
// applied to their handshake contract) that grow proportionally to each
// session's share of the traffic — the heavy streams, whose recording
// rate a wider ε actually cuts, absorb most of the degradation — and
// when the total falls back under budget every scale decays
// geometrically toward 1, restoring the contract precision.
//
// Scales are clamped to [1, MaxScale]: a budgeter never tightens a
// session below its negotiated contract, and never widens without bound
// on a stream the budget can't be met for. Not safe for concurrent use;
// one retune loop owns a budgeter.
type Budgeter struct {
	budget float64
	delta  float64
	max    float64
	scales map[string]float64
}

// A quarter of the gap is closed per tick, and widening is capped at
// 16× the contract.
const (
	budgeterDelta    = 0.25
	budgeterMaxScale = 16
)

// NewBudgeter returns a budgeter enforcing the given total byte rate
// (bytes per second, > 0) across its sessions.
func NewBudgeter(bytesPerSec float64) (*Budgeter, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("%w: byte budget must be positive", ErrConfig)
	}
	return &Budgeter{
		budget: bytesPerSec,
		delta:  budgeterDelta,
		max:    budgeterMaxScale,
		scales: make(map[string]float64),
	}, nil
}

// Tick observes one period's byte rates (bytes per second, keyed by
// session) and returns the updated per-session ε scales. A key absent
// from rates is forgotten; a key absent from the result was never over
// budget (scale 1).
func (b *Budgeter) Tick(rates map[string]float64) map[string]float64 {
	// Drop state for sessions that are gone.
	for k := range b.scales {
		if _, live := rates[k]; !live {
			delete(b.scales, k)
		}
	}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	if total <= b.budget || len(rates) == 0 {
		// Under budget: every scale relaxes a δ-fraction of the way back
		// toward the contract, so precision returns as smoothly as it
		// degraded.
		for k, s := range b.scales {
			s = 1 + (s-1)*(1-b.delta)
			if s <= 1+1e-9 {
				delete(b.scales, k)
			} else {
				b.scales[k] = s
			}
		}
		return b.snapshot()
	}
	// Over budget: close a δ-fraction of the overshoot this tick,
	// spread burden-proportionally. burden 1.0 is the average session;
	// a session carrying twice the average traffic widens twice as fast.
	over := total/b.budget - 1
	n := float64(len(rates))
	for k, r := range rates {
		burden := 1.0
		if total > 0 {
			burden = r / total * n
		}
		s := b.scale(k) * (1 + b.delta*over*burden)
		if s > b.max {
			s = b.max
		}
		b.scales[k] = s
	}
	return b.snapshot()
}

// Scale returns the current widening scale for one session (1 when the
// session is unknown or at contract precision).
func (b *Budgeter) Scale(key string) float64 { return b.scale(key) }

func (b *Budgeter) scale(key string) float64 {
	if s, ok := b.scales[key]; ok {
		return s
	}
	return 1
}

func (b *Budgeter) snapshot() map[string]float64 {
	out := make(map[string]float64, len(b.scales))
	for k, s := range b.scales {
		out[k] = s
	}
	return out
}
