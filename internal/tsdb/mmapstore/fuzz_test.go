package mmapstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/pla-go/pla/internal/core"
)

// buildExtentBytes seals a deterministic segment run and returns the
// file's bytes — the fuzz seed shape.
func buildExtentBytes(t testing.TB, dim, n int) []byte {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.seg")
	eps := make([]float64, dim)
	segs := make([]core.Segment, n)
	for d := range eps {
		eps[d] = 0.5 * float64(d+1)
	}
	for i := range segs {
		x0, x1 := make([]float64, dim), make([]float64, dim)
		for d := range x0 {
			x0[d] = math.Sin(float64(i + d))
			x1[d] = math.Cos(float64(i + d))
		}
		segs[i] = core.Segment{
			T0: float64(2 * i), T1: float64(2*i + 1),
			X0: x0, X1: x1, Connected: i%2 == 1, Points: i + 1,
		}
	}
	if err := writeExtent(path, eps, false, segs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// buildExtentV2Bytes is buildExtentBytes for the bit-packed v2 format.
func buildExtentV2Bytes(t testing.TB, dim, n int) []byte {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed2.seg")
	eps := make([]float64, dim)
	segs := make([]core.Segment, n)
	for d := range eps {
		eps[d] = 0.5 * float64(d+1)
	}
	for i := range segs {
		x0, x1 := make([]float64, dim), make([]float64, dim)
		for d := range x0 {
			x0[d] = math.Sin(float64(i + d))
			x1[d] = math.Cos(float64(i + d))
		}
		segs[i] = core.Segment{
			T0: float64(2 * i), T1: float64(2*i + 1),
			X0: x0, X1: x1, Connected: i%2 == 1, Points: i + 1,
		}
	}
	if err := writeExtentV2(path, eps, false, segs); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// FuzzExtentV2 is FuzzMmapExtent for the v2 column-block format: no
// input may panic the reader or the post-validation decode path, and
// any accepted file must survive a v2 re-seal bit-identically. The
// extra seeds lie about the block layout — size, count, directory
// offsets — the surface v1 did not have.
func FuzzExtentV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PLAE\x02"))
	for _, shape := range []struct{ dim, n int }{{1, 5}, {3, 5}, {1, 1200}} {
		raw := buildExtentV2Bytes(f, shape.dim, shape.n)
		f.Add(raw)
		f.Add(raw[:len(raw)-9])        // torn tail
		f.Add(append(raw, 0xAA, 0xBB)) // trailing garbage
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0x40 // checksum mismatch
		f.Add(flipped)
		big := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(big[8:], 1<<31-1) // lying record count
		f.Add(big)
		hs := extHeaderSize(shape.dim)
		if len(raw) >= hs+8 {
			bs := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(bs[hs:], 3) // lying block size
			f.Add(bs)
			dirlie := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(dirlie[hs+8:], uint32(len(raw))) // directory points past EOF
			f.Add(dirlie)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		e, err := openExtent(path, 1, -1)
		if err != nil {
			return // rejected cleanly
		}
		defer e.close()

		segs := make([]core.Segment, e.count)
		for i := range segs {
			if got := e.t0(i); got != e.segment(i).T0 {
				t.Fatalf("t0(%d) = %v, segment says %v", i, got, e.segment(i).T0)
			}
			if e.points(i) != e.segment(i).Points {
				t.Fatalf("points(%d) mismatch", i)
			}
			segs[i] = e.segment(i)
		}
		// searchLive must agree with a linear scan over the decoded
		// records for any probe — the in-extent half of every sealed
		// lookup (findExtent picks the extent, searchLive the record).
		if e.count > 0 {
			for _, probe := range []float64{segs[0].T0 - 1, segs[0].T0, segs[e.count/2].T0, segs[e.count-1].T0 + 1} {
				want := 0
				for want < e.count && !(segs[want].T0 > probe) {
					want++
				}
				if got := e.searchLive(probe); got != want {
					t.Fatalf("searchLive(%v) = %d, linear scan says %d", probe, got, want)
				}
			}
		}
		eps := make([]float64, e.dim)
		for d := range eps {
			eps[d] = math.Float64frombits(binary.LittleEndian.Uint64(e.data[16+8*d:]))
		}
		out := filepath.Join(dir, "reseal.seg")
		if err := writeExtentV2(out, eps, e.data[5]&extFlagConstant != 0, segs); err != nil {
			t.Fatalf("re-seal of an accepted extent failed: %v", err)
		}
		e2, err := openExtent(out, 1, e.dim)
		if err != nil {
			t.Fatalf("re-sealed extent does not open: %v", err)
		}
		defer e2.close()
		if e2.count != e.count {
			t.Fatalf("re-seal kept %d of %d records", e2.count, e.count)
		}
		for i := 0; i < e.count; i++ {
			a, b := e.segment(i), e2.segment(i)
			if a.T0 != b.T0 || a.T1 != b.T1 || a.Connected != b.Connected || a.Points != b.Points {
				t.Fatalf("record %d changed across re-seal: %+v vs %+v", i, a, b)
			}
			for d := range a.X0 {
				if math.Float64bits(a.X0[d]) != math.Float64bits(b.X0[d]) ||
					math.Float64bits(a.X1[d]) != math.Float64bits(b.X1[d]) {
					t.Fatalf("record %d dim %d changed across re-seal", i, d)
				}
			}
		}
	})
}

// FuzzMmapExtent feeds arbitrary bytes to the extent reader: it must
// never panic, never over-allocate on a lying header, and any file it
// does accept must decode into segments that re-seal to a semantically
// identical extent.
func FuzzMmapExtent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PLAE"))
	for _, dim := range []int{1, 3} {
		raw := buildExtentBytes(f, dim, 5)
		f.Add(raw)
		f.Add(raw[:len(raw)-9])        // torn tail
		f.Add(append(raw, 0xAA, 0xBB)) // trailing garbage
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0x40 // checksum mismatch
		f.Add(flipped)
		big := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(big[8:], 1<<31-1) // lying record count
		f.Add(big)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		e, err := openExtent(path, 1, -1)
		if err != nil {
			return // rejected cleanly
		}
		defer e.close()

		// The reader vouched for the bytes; every accessor must work and
		// the decode must survive a re-seal round trip.
		segs := make([]core.Segment, e.count)
		for i := range segs {
			if got := e.t0(i); got != e.segment(i).T0 {
				t.Fatalf("t0(%d) = %v, segment says %v", i, got, e.segment(i).T0)
			}
			if e.points(i) != e.segment(i).Points {
				t.Fatalf("points(%d) mismatch", i)
			}
			segs[i] = e.segment(i)
		}
		eps := make([]float64, e.dim)
		for d := range eps {
			eps[d] = math.Float64frombits(binary.LittleEndian.Uint64(e.data[16+8*d:]))
		}
		out := filepath.Join(dir, "reseal.seg")
		if err := writeExtent(out, eps, e.data[5]&extFlagConstant != 0, segs); err != nil {
			t.Fatalf("re-seal of an accepted extent failed: %v", err)
		}
		e2, err := openExtent(out, 1, e.dim)
		if err != nil {
			t.Fatalf("re-sealed extent does not open: %v", err)
		}
		defer e2.close()
		if e2.count != e.count {
			t.Fatalf("re-seal kept %d of %d records", e2.count, e.count)
		}
		for i := 0; i < e.count; i++ {
			a, b := e.segment(i), e2.segment(i)
			if a.T0 != b.T0 || a.T1 != b.T1 || a.Connected != b.Connected || a.Points != b.Points {
				t.Fatalf("record %d changed across re-seal: %+v vs %+v", i, a, b)
			}
			for d := range a.X0 {
				if math.Float64bits(a.X0[d]) != math.Float64bits(b.X0[d]) ||
					math.Float64bits(a.X1[d]) != math.Float64bits(b.X1[d]) {
					t.Fatalf("record %d dim %d changed across re-seal", i, d)
				}
			}
		}
	})
}

// FuzzReadMeta feeds arbitrary bytes to the series meta reader. The
// meta carries no checksum, so every length it claims is untrusted: the
// reader must return an error or a state, never panic, and never
// allocate past its caps. A v2 state it accepts must re-encode to a
// meta that reads back to the same bytes. Seeds: the fixture meta with
// a persisted learned-index block, a v1 meta, and metas whose index
// block is corrupt in each way the old index's verifier had to refuse.
func FuzzReadMeta(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join(fencedFixture, fencedSeriesDir, metaName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-7]) // torn inside the index block
	f.Add([]byte{})
	f.Add([]byte("PLAM\x02"))

	head := func(version byte) []byte {
		b := append([]byte(metaMagic), version, 0)
		b = binary.AppendUvarint(b, uint64(len(testEps)))
		for _, e := range testEps {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
		b = binary.AppendUvarint(b, 2)
		return append(b, "fz"...)
	}
	v1 := head(metaVersion)
	for _, v := range []uint64{300, 1, 0, 3, 0} { // points firstSeq headLo lastSeq tailDrop
		v1 = binary.AppendUvarint(v1, v)
	}
	f.Add(v1)

	v2 := head(metaVersion2)
	for _, v := range []uint64{300, 3, 0, 0, 3, 1, 2, 3} { // points lastSeq headLo tailDrop, 3 extents
		v2 = binary.AppendUvarint(v2, v)
	}
	withBlock := func(n, bound uint64, segs ...[4]float64) []byte {
		b := binary.AppendUvarint(append([]byte(nil), v2...), n)
		if n > 0 {
			b = binary.AppendUvarint(b, bound)
		}
		for _, s := range segs {
			for _, x := range s {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
		}
		return b
	}
	f.Add(withBlock(0, 0))                                                         // no index
	f.Add(withBlock(1, 0, [4]float64{0, 4, 0, 2}))                                 // sound
	f.Add(withBlock(1, 0, [4]float64{math.NaN(), 1, 0, 0}))                        // NaN range
	f.Add(withBlock(1, 0, [4]float64{5, 1, 0, 0}))                                 // reversed
	f.Add(withBlock(4, 0, [4]float64{}, [4]float64{}, [4]float64{}, [4]float64{})) // more segments than extents
	f.Add(withBlock(1, 0, [4]float64{0, 4, 1e6, 1e6}))                             // prediction out of bound
	f.Add(withBlock(1, 1<<40, [4]float64{0, 4, 0, 2}))                             // implausible bound
	f.Add(withBlock(2, 0, [4]float64{0, 4, 0, 2}))                                 // block shorter than its count
	f.Add(withBlock(metaMaxFenceSegs+1, 0))                                        // count over the cap

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, metaName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		m, err := readMeta(path)
		if err != nil {
			return // rejected cleanly
		}
		if len(m.eps) == 0 || len(m.eps) > len(data) || len(m.name) > len(data) || len(m.exts) > len(data) {
			t.Fatalf("accepted state outgrew its %d-byte input: dim %d, name %d, %d extents",
				len(data), len(m.eps), len(m.name), len(m.exts))
		}
		if !m.haveList {
			return // v1: the writer emits v2 only, so there is no round trip
		}
		if err := writeMeta(dir, m, t.Logf); err != nil {
			t.Fatal(err)
		}
		once, _ := os.ReadFile(path)
		m2, err := readMeta(path)
		if err != nil {
			t.Fatalf("re-encoded meta does not read back: %v", err)
		}
		if err := writeMeta(dir, m2, t.Logf); err != nil {
			t.Fatal(err)
		}
		if twice, _ := os.ReadFile(path); !bytes.Equal(once, twice) {
			t.Fatal("meta changed across a read/write round trip")
		}
	})
}
