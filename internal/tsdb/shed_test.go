package tsdb

import (
	"testing"

	"github.com/pla-go/pla/internal/core"
)

func shedSeries(t *testing.T) (*Archive, *Series) {
	t.Helper()
	a := New()
	s, _, err := a.GetOrCreate("s", []float64{0.5}, false)
	if err != nil {
		t.Fatal(err)
	}
	return a, s
}

// shedSeg builds a finalized one-dim segment for the shed tests; the
// shared seg helper in provisional_test.go also carries the endpoints.
func shedSeg(t0, t1 float64, pts int) core.Segment {
	return seg(t0, t1, 0, 1, pts)
}

func TestNoteEffectiveEpsilonMonotoneClamped(t *testing.T) {
	_, s := shedSeries(t)
	if got := s.QueryEpsilon()[0]; got != 0.5 {
		t.Fatalf("pristine query bound %g, want the contract", got)
	}
	s.NoteEffectiveEpsilon([]float64{0.2}) // below contract: ignored
	if got := s.QueryEpsilon()[0]; got != 0.5 {
		t.Fatalf("bound %g after a below-contract note", got)
	}
	s.NoteEffectiveEpsilon([]float64{1.5})
	if got := s.QueryEpsilon()[0]; got != 1.5 {
		t.Fatalf("bound %g, want 1.5", got)
	}
	s.NoteEffectiveEpsilon([]float64{0.9}) // narrower than current: ignored
	if got := s.QueryEpsilon()[0]; got != 1.5 {
		t.Fatalf("bound narrowed to %g", got)
	}
	if got := s.EffExtra(0); got != 1.0 {
		t.Fatalf("EffExtra %g, want 1.0", got)
	}
}

// TestShedNames pins the control-series namespace helpers.
func TestShedNames(t *testing.T) {
	name := ShedName("cpu")
	if !IsShedName(name) {
		t.Fatalf("IsShedName(%q) = false", name)
	}
	base, ok := ParseShedName(name)
	if !ok || base != "cpu" {
		t.Fatalf("ParseShedName(%q) = %q %v", name, base, ok)
	}
	if IsShedName("cpu") {
		t.Fatal("plain name classified as a shed control series")
	}
	if _, ok := ParseShedName(shedPrefix); ok {
		t.Fatal("bare prefix parsed as a shed name")
	}
}

// TestRecordEffectiveEpsilonSteps drives the persistence path: each
// widening step appends one degenerate control segment at a monotone
// synthetic time, and non-widening reports are skipped.
func TestRecordEffectiveEpsilonSteps(t *testing.T) {
	a, s := shedSeries(t)
	if err := s.Append(shedSeg(0, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.RecordEffectiveEpsilon("s", []float64{0.5}); ok {
		t.Fatal("contract-equal report claimed to widen")
	}
	ctrl, st, ok := a.RecordEffectiveEpsilon("s", []float64{0.8})
	if !ok {
		t.Fatal("widening report was skipped")
	}
	if err := ctrl.Append(st); err != nil {
		t.Fatal(err)
	}
	if st.T0 != 0 || st.X0[0] != 0.8 {
		t.Fatalf("first step %+v, want t=0 x=0.8", st)
	}
	ctrl2, st2, ok := a.RecordEffectiveEpsilon("s", []float64{1.2})
	if !ok || ctrl2 != ctrl {
		t.Fatal("second widening step skipped or re-homed")
	}
	if err := ctrl2.Append(st2); err != nil {
		t.Fatal(err)
	}
	if st2.T0 != 1 || st2.X0[0] != 1.2 {
		t.Fatalf("second step %+v, want t=1 x=1.2", st2)
	}
	// Visible namespace stays clean; ShedNames sees the control series.
	for _, n := range a.Names() {
		if IsShedName(n) {
			t.Fatalf("control series %q leaked into Names()", n)
		}
	}
	if names := a.ShedNames(); len(names) != 1 || names[0] != ShedName("s") {
		t.Fatalf("ShedNames() = %v", names)
	}
	if got := s.QueryEpsilon()[0]; got != 1.2 {
		t.Fatalf("base bound %g after two steps, want 1.2", got)
	}
}

// TestSeedEffectiveEpsilon rebuilds the post-recovery state: a fresh
// archive holding only the replayed control series folds the newest
// step back into the base's reported bound.
func TestSeedEffectiveEpsilon(t *testing.T) {
	a, s := shedSeries(t)
	if err := s.Append(shedSeg(0, 1, 4)); err != nil {
		t.Fatal(err)
	}
	ctrl, _, err := a.GetOrCreate(ShedName("s"), []float64{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []float64{0.8, 1.3} {
		st := core.Segment{T0: float64(i), T1: float64(i), X0: []float64{e}, X1: []float64{e}, Points: 1}
		if err := ctrl.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	if n := a.SeedEffectiveEpsilon(); n != 1 {
		t.Fatalf("seeded %d series, want 1", n)
	}
	if got := s.QueryEpsilon()[0]; got != 1.3 {
		t.Fatalf("seeded bound %g, want the newest step 1.3", got)
	}
	// Seeding an archive with no control series is a no-op.
	b := New()
	if n := b.SeedEffectiveEpsilon(); n != 0 {
		t.Fatalf("empty archive seeded %d", n)
	}
}

// TestQueryEpsilonFlowsIntoAggregates checks the inflated bound reaches
// the pushdown and fold answers, not just the accessor.
func TestQueryEpsilonFlowsIntoAggregates(t *testing.T) {
	_, s := shedSeries(t)
	if err := s.Append(shedSeg(0, 10, 11)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Mean(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0.5 {
		t.Fatalf("pristine aggregate ε %g, want the contract", res.Epsilon)
	}
	s.NoteEffectiveEpsilon([]float64{2})
	res, err = s.Mean(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 2 {
		t.Fatalf("degraded aggregate ε %g, want 2", res.Epsilon)
	}
}
