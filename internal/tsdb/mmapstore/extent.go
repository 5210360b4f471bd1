package mmapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/pla-go/pla/internal/core"
)

// Extent file layout (little endian). Records are fixed width and
// sorted by start time, so a mapped extent is directly binary-
// searchable; every multi-byte field sits at an 8-byte-aligned offset.
//
//	offset  0: magic "PLAE" (4)
//	        4: version (1)
//	        5: flags (1)        bit0 constant
//	        6: dim (uint16)
//	        8: count (uint32)   number of records
//	       12: crc32c (uint32)  over the record bytes
//	       16: ε (dim × float64)
//	records at 16+8·dim, each 24+16·dim bytes:
//	        0: t0 (float64)
//	        8: t1 (float64)
//	       16: points (uint32)
//	       20: flags (uint8)    bit0 connected
//	       21: 3 pad bytes
//	       24: x0 (dim × float64)
//	 24+8·dim: x1 (dim × float64)

const (
	extPattern = "ext-%08d.seg"
	extMagic   = "PLAE"
	extVersion = 1

	extFlagConstant  = 1 << 0
	recFlagConnected = 1 << 0

	// extMaxDim bounds the dimensionality an extent header may claim —
	// far above any real stream, low enough that a corrupt header
	// cannot make size arithmetic overflow.
	extMaxDim = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func extHeaderSize(dim int) int { return 16 + 8*dim }
func extRecordSize(dim int) int { return 24 + 16*dim }

// extent is one mapped sealed file plus its live-record window
// [lo, hi) — retention fences records out without rewriting the
// immutable bytes. v2 is nil for fixed-width v1 files and carries the
// block layout plus decode cache for column-block files (extentv2.go);
// every accessor dispatches on it, so the two formats coexist in one
// store forever.
type extent struct {
	seq    uint64
	path   string
	data   []byte // whole file, mapped (or read, on platforms without mmap)
	dim    int
	count  int
	lo, hi int
	v2     *extV2
}

func (e *extent) live() int { return e.hi - e.lo }

// close unmaps the extent.
func (e *extent) close() {
	if e.data != nil {
		unmapFile(e.data)
		e.data = nil
	}
}

// retire unmaps the extent and deletes its file (nothing in it is live
// any more).
func (e *extent) retire(logf func(string, ...any)) {
	e.close()
	if err := os.Remove(e.path); err != nil {
		logf("mstore: remove %s: %v", e.path, err)
	}
}

func (e *extent) recOff(i int) int { return extHeaderSize(e.dim) + i*extRecordSize(e.dim) }

func (e *extent) t0(i int) float64 {
	if e.v2 != nil {
		return e.v2T0(i)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(e.data[e.recOff(i):]))
}

func (e *extent) points(i int) int {
	if e.v2 != nil {
		return e.v2Points(i)
	}
	return int(binary.LittleEndian.Uint32(e.data[e.recOff(i)+16:]))
}

// segment decodes record i into fresh slices, so the result outlives
// the mapping.
func (e *extent) segment(i int) core.Segment {
	if e.v2 != nil {
		return e.v2Segment(i)
	}
	p := e.data[e.recOff(i):]
	seg := core.Segment{
		T0:        math.Float64frombits(binary.LittleEndian.Uint64(p)),
		T1:        math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		Points:    int(binary.LittleEndian.Uint32(p[16:])),
		Connected: p[20]&recFlagConnected != 0,
		X0:        make([]float64, e.dim),
		X1:        make([]float64, e.dim),
	}
	for d := 0; d < e.dim; d++ {
		seg.X0[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[24+8*d:]))
		seg.X1[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[24+8*e.dim+8*d:]))
	}
	return seg
}

// openExtent maps path and validates it completely: header fields, the
// exact file size the record count implies, and the record checksum.
// Validation reads the mapping once, sequentially — far cheaper than
// decoding segments onto the heap, and it is what catches a torn seal
// or bit rot before any query trusts the bytes.
func openExtent(path string, seq uint64, wantDim int) (*extent, error) {
	data, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	e := &extent{seq: seq, path: path, data: data}
	if err := e.validate(wantDim); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// validate checks the mapped bytes against the format; wantDim < 0
// accepts any dimensionality (the fuzz target's mode).
func (e *extent) validate(wantDim int) error {
	if len(e.data) < extHeaderSize(0) {
		return fmt.Errorf("mstore: extent shorter than its header")
	}
	if string(e.data[:4]) != extMagic {
		return fmt.Errorf("mstore: bad extent magic %q", e.data[:4])
	}
	version := e.data[4]
	if version != extVersion && version != extVersion2 {
		return fmt.Errorf("mstore: unknown extent version %d", version)
	}
	dim := int(binary.LittleEndian.Uint16(e.data[6:]))
	if dim == 0 || dim > extMaxDim {
		return fmt.Errorf("mstore: bad extent dimensionality %d", dim)
	}
	if wantDim >= 0 && dim != wantDim {
		return fmt.Errorf("mstore: extent dim %d, series dim %d", dim, wantDim)
	}
	if len(e.data) < extHeaderSize(dim) {
		return fmt.Errorf("mstore: extent shorter than its header")
	}
	count := int(binary.LittleEndian.Uint32(e.data[8:]))
	if version == extVersion {
		want := extHeaderSize(dim) + count*extRecordSize(dim)
		if len(e.data) != want {
			return fmt.Errorf("mstore: extent is %d bytes, %d records imply %d", len(e.data), count, want)
		}
	}
	// Both versions checksum everything after the ε block: the v1
	// records, or the v2 layout words, directory and block payloads.
	recs := e.data[extHeaderSize(dim):]
	if got, hdr := crc32.Checksum(recs, castagnoli), binary.LittleEndian.Uint32(e.data[12:]); got != hdr {
		return fmt.Errorf("mstore: extent checksum %#x, header says %#x", got, hdr)
	}
	if version == extVersion2 {
		return e.validateV2(dim, count)
	}
	e.dim, e.count, e.lo, e.hi = dim, count, 0, count
	return nil
}

// matchExtName parses an extent file name. The digits are parsed
// directly (Sscanf's %08d would stop at eight digits and reject
// sequences that outgrew the zero padding).
func matchExtName(name string, seq *uint64) bool {
	const prefix, suffix = "ext-", ".seg"
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return false
	}
	digits, ok = strings.CutSuffix(digits, suffix)
	if !ok || len(digits) < 8 {
		return false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return false
	}
	*seq = v
	return true
}
