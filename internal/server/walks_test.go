package server_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/gen"
	"github.com/pla-go/pla/internal/server"
)

const ingestEps = 0.5 // the per-dimension precision every walk session filters at

// walks returns n deterministic random walks (seed i+1) of points samples.
func walks(n, points int) (out [][]core.Point) {
	for i := range n {
		out = append(out, gen.RandomWalk(gen.WalkConfig{N: points, P: 0.5, MaxDelta: 0.4, Seed: uint64(i + 1)}))
	}
	return out
}

// round streams signals[i] into series "<prefix>-<i>" concurrently, one
// Swing(ingestEps) session per signal lagged ≤ maxLag (0 = unbounded),
// Flushing every flushEvery points (0 = one batch), and sums the acks.
func round(addr, prefix string, signals [][]core.Point, maxLag, flushEvery int) (sum server.Ack, _ error) {
	acks, errs := make([]server.Ack, len(signals)), make([]error, len(signals))
	var wg sync.WaitGroup
	wg.Add(len(signals))
	for i, sig := range signals {
		go func() {
			defer wg.Done()
			c, err := server.DialSpec(addr, fmt.Sprintf("%s-%d", prefix, i), server.FilterSpec{Epsilon: []float64{ingestEps}, MaxLag: maxLag})
			for part := range slices.Chunk(sig, cmp.Or(flushEvery, len(sig))) {
				if err == nil {
					err = errors.Join(c.SendBatch(part), c.Flush())
				}
			}
			if err == nil {
				acks[i], err = c.Close()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, a := range acks {
		sum.Applied, sum.Rejected, sum.Dropped = sum.Applied+a.Applied, sum.Rejected+a.Rejected, sum.Dropped+a.Dropped
	}
	return sum, errors.Join(errs...)
}
