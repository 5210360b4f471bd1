package sketch

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSketchMerge hammers the decode → merge → query pipeline with
// arbitrary bytes: whatever parses must merge without panicking, keep
// the epsNew = max(eps1, eps2) contract, and answer queries inside its
// own band, and match the binary-search reference Merge exactly. Seeds
// cover empty, exact, compressed, and weighted shapes.
func FuzzSketchMerge(f *testing.F) {
	empty := (&Summary{}).AppendBinary(nil)
	b := NewBuilder()
	for i := 0; i < 300; i++ {
		b.Add(float64(i%17)-8, 1+float64(i%3))
	}
	small := b.Build()
	f.Add(empty, empty)
	f.Add(small.AppendBinary(nil), empty)
	f.Add(small.AppendBinary(nil), small.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, abuf, bbuf []byte) {
		sa, _, errA := ParseSummary(abuf)
		sb, _, errB := ParseSummary(bbuf)
		if errA != nil || errB != nil {
			return
		}
		m := Merge(sa, sb)
		sameSummary(t, "merge", m, refMerge(sa, sb))
		if want := math.Max(sa.Eps(), sb.Eps()); m.Eps() != want {
			t.Fatalf("merged eps %v, want max %v", m.Eps(), want)
		}
		if m.N() < 0 {
			t.Fatalf("merged n negative: %v", m.N())
		}
		for _, q := range []float64{0, 0.5, 1} {
			ans := m.Query(q)
			if m.Len() == 0 {
				if !math.IsNaN(ans.Value) {
					t.Fatalf("empty merge answered %v", ans.Value)
				}
				continue
			}
			if !(ans.Lo <= ans.Value && ans.Value <= ans.Hi) {
				t.Fatalf("q=%v: estimate %v outside band [%v, %v]", q, ans.Value, ans.Lo, ans.Hi)
			}
		}
		// A merged summary must survive its own round trip.
		enc := m.AppendBinary(nil)
		if _, _, err := ParseSummary(enc); err != nil {
			t.Fatalf("merged summary does not re-parse: %v", err)
		}
		m.Compress(16)
		if m.Len() > 17 {
			t.Fatalf("compress(16) left %d entries", m.Len())
		}
	})
}

// FuzzBuildMatchesSort feeds arbitrary (V, W) sequences to Build and
// BuildExact and diffs both against the sort-based reference. Each
// 9-byte record is one Add: V is a float64's bits (NaN, ±Inf and ±0
// included), W one byte, an integer weight as AddSeg gives. The only
// allowed difference is the canonical +0 of a −0/+0 tie, which the
// reference left to its sort.
func FuzzBuildMatchesSort(f *testing.F) {
	rec := func(vw ...float64) []byte {
		var buf []byte
		for i := 0; i+1 < len(vw); i += 2 {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vw[i]))
			buf = append(buf, byte(vw[i+1]))
		}
		return buf
	}
	f.Add([]byte{})
	f.Add(rec(3, 1, 1, 1, 2, 1))
	f.Add(rec(1, 1, 2, 1, 3, 1, 3, 2, 2, 1, 1, 1, 0, 0, 5, 9))
	f.Add(rec(math.Copysign(0, -1), 1, 0, 2, math.Copysign(0, -1), 1, -1, 1))
	f.Add(rec(math.NaN(), 1, math.Inf(1), 1, 7, 255, 7, 3, -7, 4))
	var long []float64
	for i := 0; i < 600; i++ {
		long = append(long, float64((i*37)%101)/4, float64(1+i%3))
	}
	f.Add(rec(long...))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, ref := NewBuilder(), &Builder{}
		plusZero := false
		for ; len(data) >= 9; data = data[9:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			w := float64(data[8])
			b.Add(v, w)
			ref.Add(v, w)
			plusZero = plusZero || (v == 0 && !math.Signbit(v) && w > 0)
		}
		exactRef := &Builder{vals: append([]Entry(nil), ref.vals...)}
		exact := &Builder{vals: append([]Entry(nil), ref.vals...)}
		canon := func(s *Summary) *Summary {
			for i := range s.entries {
				if s.entries[i].V == 0 && plusZero {
					s.entries[i].V = 0
				}
			}
			return s
		}
		sameSummary(t, "build", b.Build(), canon(refBuild(ref)))
		sameSummary(t, "exact build", exact.BuildExact(), canon(refBuildExact(exactRef)))
	})
}
