package mmapstore

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"

	"github.com/pla-go/pla/internal/core"
)

// The store writes only v2 extents; v1 files stay readable. The v1
// writer lives here for the fuzz seeds and the regeneration of the
// frozen testdata/v1 fixtures.

// writeExtent seals segs as one v1 extent file: written, flushed and
// fsynced before returning.
func writeExtent(path string, eps []float64, constant bool, segs []core.Segment) error {
	dim := len(eps)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)

	rec := make([]byte, extRecordSize(dim))
	crc := crc32.New(castagnoli)
	hdr := make([]byte, extHeaderSize(dim))
	copy(hdr, extMagic)
	hdr[4] = extVersion
	if constant {
		hdr[5] = extFlagConstant
	}
	binary.LittleEndian.PutUint16(hdr[6:], uint16(dim))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(segs)))
	for d, e := range eps {
		binary.LittleEndian.PutUint64(hdr[16+8*d:], math.Float64bits(e))
	}
	// The crc slot is filled after the records are known; buffer the
	// records through the hash on the way out.
	encodeRec := func(seg core.Segment) []byte {
		binary.LittleEndian.PutUint64(rec, math.Float64bits(seg.T0))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(seg.T1))
		pts := seg.Points
		if pts < 0 {
			pts = 0
		}
		binary.LittleEndian.PutUint32(rec[16:], uint32(pts))
		var flags byte
		if seg.Connected {
			flags |= recFlagConnected
		}
		rec[20] = flags
		rec[21], rec[22], rec[23] = 0, 0, 0
		for d := 0; d < dim; d++ {
			binary.LittleEndian.PutUint64(rec[24+8*d:], math.Float64bits(seg.X0[d]))
			binary.LittleEndian.PutUint64(rec[24+8*dim+8*d:], math.Float64bits(seg.X1[d]))
		}
		return rec
	}
	for _, seg := range segs {
		crc.Write(encodeRec(seg))
	}
	binary.LittleEndian.PutUint32(hdr[12:], crc.Sum32())

	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return fail(err)
	}
	for _, seg := range segs {
		if _, err := bw.Write(encodeRec(seg)); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	return f.Close()
}
