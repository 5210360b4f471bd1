package mmapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"sync"

	"github.com/pla-go/pla/internal/core"
)

// Extent format v2: column blocks instead of fixed-width records. The
// fixed header (magic, version=2, flags, dim, count, crc, ε) is shared
// with v1; after it, at extHeaderSize(dim):
//
//	+0: block size (uint32)   records per block (last block may be short)
//	+4: nblocks (uint32)
//	directory, nblocks × 12 bytes:
//	    +0: off (uint32)      block payload offset from file start
//	    +4: first t0 (float64 bits) of the block — binary-searchable
//	        without touching the payload
//	block payloads back to back, each the column sequence
//	    t0 | t1 | points | connected bitmap (⌈k/8⌉ raw bytes) |
//	    x0[0..dim) | x1[0..dim)
//	with each column encoded per packed.go.
//
// The crc32c in the fixed header covers everything after the ε block —
// layout words, directory and payloads — so a torn compaction write is
// caught exactly like a torn v1 seal. openExtent decodes every block
// once at open time; after that the read path trusts offsets and
// widths unconditionally, which is what keeps the per-query decode
// loop allocation-free and panic-safe on fuzzed inputs.
const (
	extVersion2 = 2

	// v2BlockSize is the writer's records-per-block. 512 keeps a
	// decoded block around 20 KiB for dim-2 series (cache-friendly)
	// while amortizing the per-column headers to well under a bit per
	// record.
	v2BlockSize = 512

	// v2MaxBlockSize bounds what a header may claim, so scratch-buffer
	// sizing from untrusted bytes stays small.
	v2MaxBlockSize = 1 << 20
)

// extV2 is the v2-specific state of a mapped extent: the block layout
// plus a one-block decode cache. Queries run concurrently under the
// series RLock, so the cache carries its own mutex.
type extV2 struct {
	bs      int // records per block
	nblocks int
	dirOff  int // directory offset from file start

	mu    sync.Mutex
	cache v2Block

	// The t0 column is the only lane a time search touches, so it gets
	// its own one-block cache: a probe that misses the full-block cache
	// decodes one column, not all 3+2·dim of them.
	tIdx int // block whose t0 column is decoded in tT0s; -1 = none
	tT0s []uint64
}

// v2Block is one decoded block: column lanes sized for a full block
// (short last blocks fill a prefix). x0/x1 hold dim lanes of bs values
// each, dimension d record r at [d*bs+r].
type v2Block struct {
	idx    int // block index held; -1 when empty
	t0     []uint64
	t1     []uint64
	pts    []uint64
	conn   []byte
	x0, x1 []uint64
}

func newV2Block(dim, bs int) v2Block {
	return v2Block{
		idx:  -1,
		t0:   make([]uint64, bs),
		t1:   make([]uint64, bs),
		pts:  make([]uint64, bs),
		conn: make([]byte, (bs+7)/8),
		x0:   make([]uint64, dim*bs),
		x1:   make([]uint64, dim*bs),
	}
}

// decodeV2Block decodes one block payload of k records into dst,
// requiring exact consumption of payload. Structural validation lives
// in decodeColumn; this cannot fail on bytes openExtent accepted.
func decodeV2Block(payload []byte, dim, k, bs int, dst *v2Block) error {
	p, err := decodeColumn(payload, k, true, dst.t0)
	if err != nil {
		return err
	}
	if p, err = decodeColumn(p, k, true, dst.t1); err != nil {
		return err
	}
	if p, err = decodeColumn(p, k, false, dst.pts); err != nil {
		return err
	}
	nb := (k + 7) / 8
	if len(p) < nb {
		return fmt.Errorf("mstore: truncated connected bitmap")
	}
	copy(dst.conn, p[:nb])
	p = p[nb:]
	for d := 0; d < dim; d++ {
		if p, err = decodeColumn(p, k, true, dst.x0[d*bs:d*bs+k]); err != nil {
			return err
		}
	}
	for d := 0; d < dim; d++ {
		if p, err = decodeColumn(p, k, true, dst.x1[d*bs:d*bs+k]); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("mstore: %d trailing bytes in block", len(p))
	}
	return nil
}

// validateV2 checks the block layout and decodes every block once, so
// access-time decodes can never read out of bounds. Called by validate
// after the shared header and checksum pass.
func (e *extent) validateV2(dim, count int) error {
	p := extHeaderSize(dim)
	if len(e.data) < p+8 {
		return fmt.Errorf("mstore: v2 extent missing block layout")
	}
	bs := int(binary.LittleEndian.Uint32(e.data[p:]))
	nb := int(binary.LittleEndian.Uint32(e.data[p+4:]))
	if bs < 1 || bs > v2MaxBlockSize {
		return fmt.Errorf("mstore: v2 block size %d", bs)
	}
	if want := (count + bs - 1) / bs; nb != want {
		return fmt.Errorf("mstore: v2 extent claims %d blocks, %d records at block size %d imply %d", nb, count, bs, want)
	}
	dirOff := p + 8
	blocksOff := dirOff + 12*nb
	if blocksOff > len(e.data) {
		return fmt.Errorf("mstore: v2 directory overruns the file")
	}
	e.dim, e.count, e.lo, e.hi = dim, count, 0, count
	e.v2 = &extV2{bs: bs, nblocks: nb, dirOff: dirOff, tIdx: -1}
	e.v2.cache = newV2Block(dim, bs)

	prev := blocksOff
	for b := 0; b < nb; b++ {
		off := e.blockOff(b)
		if off != prev {
			return fmt.Errorf("mstore: v2 block %d starts at %d, previous ended at %d", b, off, prev)
		}
		end := e.blockOff(b + 1)
		if end < off || end > len(e.data) {
			return fmt.Errorf("mstore: v2 block %d overruns the file", b)
		}
		if err := decodeV2Block(e.data[off:end], dim, e.blockLen(b), bs, &e.v2.cache); err != nil {
			return fmt.Errorf("mstore: v2 block %d: %w", b, err)
		}
		if e.v2.cache.t0[0] != binary.LittleEndian.Uint64(e.data[dirOff+12*b+4:]) {
			return fmt.Errorf("mstore: v2 block %d directory t0 mismatch", b)
		}
		prev = end
	}
	if prev != len(e.data) {
		return fmt.Errorf("mstore: v2 extent has %d trailing bytes", len(e.data)-prev)
	}
	if nb > 0 {
		e.v2.cache.idx = nb - 1 // the validation loop left the last block decoded
	}
	return nil
}

// blockOff returns where block b's payload starts; blockOff(nblocks)
// is the end of the file.
func (e *extent) blockOff(b int) int {
	if b == e.v2.nblocks {
		return len(e.data)
	}
	return int(binary.LittleEndian.Uint32(e.data[e.v2.dirOff+12*b:]))
}

// blockLen returns the record count of block b (the last may be short).
func (e *extent) blockLen(b int) int {
	k := e.count - b*e.v2.bs
	if k > e.v2.bs {
		k = e.v2.bs
	}
	return k
}

// dirFirstT0 reads block b's first record t0 from the directory —
// no payload decode (verified bit-equal to the payload at open).
func (e *extent) dirFirstT0(b int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(e.data[e.v2.dirOff+12*b+4:]))
}

// loadBlock returns block b decoded, via the cache. Caller holds v2.mu.
func (e *extent) loadBlock(b int) *v2Block {
	v := e.v2
	if v.cache.idx == b {
		return &v.cache
	}
	if err := decodeV2Block(e.data[e.blockOff(b):e.blockOff(b+1)], e.dim, e.blockLen(b), v.bs, &v.cache); err != nil {
		// Every block decoded clean at open; the mapping cannot have
		// produced new bytes.
		panic(fmt.Sprintf("mstore: validated block %d of %s failed to decode: %v", b, e.path, err))
	}
	v.cache.idx = b
	return &v.cache
}

// blockT0s returns block b's decoded t0 column, reusing the full-block
// cache when it already holds b and paying a one-column decode into the
// dedicated t0 cache otherwise. Caller holds v2.mu.
func (e *extent) blockT0s(b int) []uint64 {
	v := e.v2
	if v.cache.idx == b {
		return v.cache.t0
	}
	if v.tIdx != b {
		if v.tT0s == nil {
			v.tT0s = make([]uint64, v.bs)
		}
		if _, err := decodeColumn(e.data[e.blockOff(b):e.blockOff(b+1)], e.blockLen(b), true, v.tT0s); err != nil {
			panic(fmt.Sprintf("mstore: validated block %d of %s failed to decode: %v", b, e.path, err))
		}
		v.tIdx = b
	}
	return v.tT0s
}

func (e *extent) v2T0(i int) float64 {
	v := e.v2
	b, r := i/v.bs, i%v.bs
	if r == 0 {
		return e.dirFirstT0(b)
	}
	v.mu.Lock()
	t := math.Float64frombits(e.blockT0s(b)[r])
	v.mu.Unlock()
	return t
}

func (e *extent) v2Points(i int) int {
	v := e.v2
	b, r := i/v.bs, i%v.bs
	v.mu.Lock()
	pts := int(e.loadBlock(b).pts[r])
	v.mu.Unlock()
	return pts
}

func (e *extent) v2Segment(i int) core.Segment {
	v := e.v2
	b, r := i/v.bs, i%v.bs
	seg := core.Segment{
		X0: make([]float64, e.dim),
		X1: make([]float64, e.dim),
	}
	v.mu.Lock()
	blk := e.loadBlock(b)
	seg.T0 = math.Float64frombits(blk.t0[r])
	seg.T1 = math.Float64frombits(blk.t1[r])
	seg.Points = int(blk.pts[r])
	seg.Connected = blk.conn[r/8]&(1<<(r%8)) != 0
	for d := 0; d < e.dim; d++ {
		seg.X0[d] = math.Float64frombits(blk.x0[d*v.bs+r])
		seg.X1[d] = math.Float64frombits(blk.x1[d*v.bs+r])
	}
	v.mu.Unlock()
	return seg
}

// searchLive returns the least live record index with t0(i) > t. For
// v2 extents it binary-searches the block directory first, then one
// decoded t0 column — at most one single-column decode per call —
// instead of log(count) record probes.
func (e *extent) searchLive(t float64) int {
	if e.v2 == nil {
		return e.lo + sort.Search(e.hi-e.lo, func(j int) bool { return e.t0(e.lo+j) > t })
	}
	v := e.v2
	b0 := e.lo / v.bs
	b1 := (e.hi - 1) / v.bs
	// Last block in [b0, b1] whose first t0 is ≤ t; if even b0's first
	// live record exceeds t the in-block search below lands on it.
	b := b0 + sort.Search(b1-b0, func(j int) bool { return e.dirFirstT0(b0+1+j) > t })
	blo := b * v.bs
	if blo < e.lo {
		blo = e.lo
	}
	bhi := b*v.bs + e.blockLen(b)
	if bhi > e.hi {
		bhi = e.hi
	}
	v.mu.Lock()
	t0s := e.blockT0s(b)
	j := sort.Search(bhi-blo, func(j int) bool {
		return math.Float64frombits(t0s[blo-b*v.bs+j]) > t
	})
	v.mu.Unlock()
	// All of block b ≤ t means the answer is the next block's first
	// record, whose directory t0 the block search already proved > t.
	return blo + j
}

// appendV2Block encodes segs (one block's worth) onto dst. lanes and
// scratch are reused across blocks.
func appendV2Block(dst []byte, segs []core.Segment, dim int, lanes []uint64, scratch []int64) ([]byte, []int64) {
	k := len(segs)
	lanes = lanes[:k]
	for i, s := range segs {
		lanes[i] = math.Float64bits(s.T0)
	}
	dst, scratch = appendColumn(dst, lanes, true, scratch)
	for i, s := range segs {
		lanes[i] = math.Float64bits(s.T1)
	}
	dst, scratch = appendColumn(dst, lanes, true, scratch)
	for i, s := range segs {
		pts := s.Points
		if pts < 0 {
			pts = 0
		}
		lanes[i] = uint64(uint32(pts))
	}
	dst, scratch = appendColumn(dst, lanes, false, scratch)
	flagsOff := len(dst)
	for i := 0; i < (k+7)/8; i++ {
		dst = append(dst, 0)
	}
	for i, s := range segs {
		if s.Connected {
			dst[flagsOff+i/8] |= 1 << (i % 8)
		}
	}
	for d := 0; d < dim; d++ {
		for i, s := range segs {
			lanes[i] = math.Float64bits(s.X0[d])
		}
		dst, scratch = appendColumn(dst, lanes, true, scratch)
	}
	for d := 0; d < dim; d++ {
		for i, s := range segs {
			lanes[i] = math.Float64bits(s.X1[d])
		}
		dst, scratch = appendColumn(dst, lanes, true, scratch)
	}
	return dst, scratch
}

// writeExtentV2 seals segs as one v2 extent file — the only format the
// store writes: flushed and fsynced before returning, so a caller
// updating its meta afterwards never points at bytes the disk does not
// hold, and removed on failure.
func writeExtentV2(path string, eps []float64, constant bool, segs []core.Segment) error {
	dim := len(eps)
	n := len(segs)
	bs := v2BlockSize
	nb := (n + bs - 1) / bs

	hdrSize := extHeaderSize(dim) + 8 + 12*nb
	hdr := make([]byte, hdrSize)
	copy(hdr, extMagic)
	hdr[4] = extVersion2
	if constant {
		hdr[5] = extFlagConstant
	}
	binary.LittleEndian.PutUint16(hdr[6:], uint16(dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	for d, e := range eps {
		binary.LittleEndian.PutUint64(hdr[16+8*d:], math.Float64bits(e))
	}
	p := extHeaderSize(dim)
	binary.LittleEndian.PutUint32(hdr[p:], uint32(bs))
	binary.LittleEndian.PutUint32(hdr[p+4:], uint32(nb))

	var blocks []byte
	lanes := make([]uint64, bs)
	var scratch []int64
	for b := 0; b < nb; b++ {
		lo, hi := b*bs, (b+1)*bs
		if hi > n {
			hi = n
		}
		binary.LittleEndian.PutUint32(hdr[p+8+12*b:], uint32(hdrSize+len(blocks)))
		binary.LittleEndian.PutUint64(hdr[p+8+12*b+4:], math.Float64bits(segs[lo].T0))
		blocks, scratch = appendV2Block(blocks, segs[lo:hi], dim, lanes, scratch)
	}
	crc := crc32.New(castagnoli)
	crc.Write(hdr[extHeaderSize(dim):])
	crc.Write(blocks)
	binary.LittleEndian.PutUint32(hdr[12:], crc.Sum32())

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		return fail(err)
	}
	if _, err := f.Write(blocks); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	return f.Close()
}
