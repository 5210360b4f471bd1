package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the index of the span that was open when
// this one began (−1 for a root); Req identifies the request — a chunk
// or a query index — every span of one request shares.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans on one goroutine. Spans stay in memory until
// write; a disabled tracer records nothing, which is how the layer
// trace measures what recording costs.
type tracer struct {
	enabled bool
	t0      time.Time
	spans   []span
	open    []int // indices of the spans begun and not yet ended, outermost first
}

func newTracer(enabled bool) *tracer {
	return &tracer{enabled: enabled, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string, req int) int {
	if !t.enabled {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if !t.enabled {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans must end innermost first")
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, req int, fn func() error) error {
	id := t.begin(name, req)
	err := fn()
	t.end(id)
	return err
}

// layerTime is what one span name adds up to.
type layerTime struct {
	calls int
	total time.Duration // Σ end − start
	self  time.Duration // Σ (end − start − the part children cover)
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the part of its interval its direct children cover; children of
// one parent do not overlap (one goroutine), so that part is the sum of
// their durations clipped to the parent.
func selfTimes(spans []span) map[string]layerTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - covered[i])
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
