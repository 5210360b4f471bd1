package tsdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"github.com/pla-go/pla/internal/encode"
)

// Archive container format (little endian):
//
//	magic "PLAA" | uvarint seriesCount
//	per series: uvarint nameLen | name bytes | uvarint points |
//	            uvarint blobLen | blob (the encode wire format, which
//	            already carries dim, ε and the constant flag)

const archiveMagic = "PLAA"

// WriteTo serialises the whole archive. It returns the number of bytes
// written.
func (a *Archive) WriteTo(w io.Writer) (int64, error) {
	return a.WriteSeriesTo(w, a.Names())
}

// WriteSeriesTo serialises just the named series, in the given order —
// the subset writer behind per-shard snapshots, where each partition
// persists only the series it owns. Names that no longer exist (dropped
// since the caller listed them) are skipped, so a snapshot cannot fail
// on a racing delete.
func (a *Archive) WriteSeriesTo(w io.Writer, names []string) (int64, error) {
	series := make([]*Series, 0, len(names))
	for _, name := range names {
		if s, err := a.Get(name); err == nil {
			series = append(series, s)
		}
	}
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(archiveMagic)); err != nil {
		return n, err
	}
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(tmp[:], v)
		return count(bw.Write(tmp[:k]))
	}
	if err := putUvarint(uint64(len(series))); err != nil {
		return n, err
	}
	for _, s := range series {
		name := s.name
		s.mu.RLock()
		segs := s.store.Snapshot()
		// A provisional (max-lag) tail is transient wire state: the
		// sender supersedes it with finalized segments, so persisting it
		// would freeze an announcement as fact. Snapshots carry only the
		// finalized prefix and its point count.
		segs = segs[:len(segs)-s.provisional]
		eps := s.eps
		constant := s.constant
		points := s.points - s.provPoints
		s.mu.RUnlock()

		var blob writeCounter
		if _, err := encode.EncodeAll(&blob, eps, constant, segs); err != nil {
			return n, err
		}
		if err := putUvarint(uint64(len(name))); err != nil {
			return n, err
		}
		if err := count(bw.WriteString(name)); err != nil {
			return n, err
		}
		if err := putUvarint(uint64(points)); err != nil {
			return n, err
		}
		if err := putUvarint(uint64(len(blob.buf))); err != nil {
			return n, err
		}
		if err := count(bw.Write(blob.buf)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

type writeCounter struct{ buf []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// ReadArchive deserialises an archive written by WriteTo.
func ReadArchive(r io.Reader) (*Archive, error) {
	a := New()
	if err := ReadInto(a, r); err != nil {
		return nil, err
	}
	return a, nil
}

// ReadInto deserialises an archive written by WriteTo into a, which keeps
// its own segment-store factory — the recovery path for durable storage,
// where the caller owns the (empty) archive the server will serve from.
// A series that already exists in a is an error. Each series loads
// through Series.Restore, so a segment overlapping its predecessor is
// skipped rather than failing the load.
func ReadInto(a *Archive, r io.Reader) error {
	_, _, err := readArchiveInto(a, r, false)
	return err
}

// MergeInto deserialises an archive stream like ReadInto but skips
// series that already exist in a instead of failing — the reader for
// incremental snapshot chains, which apply newest file first so the
// first copy seen of each series wins. A skipped series' blob is
// discarded without decoding. It returns the names it created, so a
// caller hitting a decode error mid-file can roll back exactly this
// file's contribution and fall through to an older generation — and
// how many overlapping segments Series.Restore skipped.
func MergeInto(a *Archive, r io.Reader) (created []string, skipped int, err error) {
	return readArchiveInto(a, r, true)
}

func readArchiveInto(a *Archive, r io.Reader, skipExisting bool) (created []string, skipped int, err error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(archiveMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return created, skipped, fmt.Errorf("%w: missing magic: %v", ErrFormat, err)
	}
	if string(head) != archiveMagic {
		return created, skipped, fmt.Errorf("%w: bad magic %q", ErrFormat, head)
	}
	nSeries, err := binary.ReadUvarint(br)
	if err != nil || nSeries > 1<<24 {
		return created, skipped, fmt.Errorf("%w: bad series count", ErrFormat)
	}
	for i := uint64(0); i < nSeries; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil || nameLen > 1<<16 {
			return created, skipped, fmt.Errorf("%w: bad name length", ErrFormat)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return created, skipped, fmt.Errorf("%w: truncated name: %v", ErrFormat, err)
		}
		points, err := binary.ReadUvarint(br)
		if err != nil {
			return created, skipped, fmt.Errorf("%w: bad point count", ErrFormat)
		}
		blobLen, err := binary.ReadUvarint(br)
		if err != nil || blobLen > 1<<34 {
			return created, skipped, fmt.Errorf("%w: bad blob length", ErrFormat)
		}
		if skipExisting {
			if _, gerr := a.Get(string(name)); gerr == nil {
				// A newer file in the chain already provided this series.
				if _, err := io.CopyN(io.Discard, br, int64(blobLen)); err != nil {
					return created, skipped, fmt.Errorf("%w: truncated blob: %v", ErrFormat, err)
				}
				continue
			}
		}
		// Grow with the stream rather than trusting the declared length: a
		// corrupt header claiming a huge blob must fail on the missing
		// bytes, not allocate them up front.
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, br, int64(blobLen)); err != nil {
			return created, skipped, fmt.Errorf("%w: truncated blob: %v", ErrFormat, err)
		}
		dec, err := encode.NewDecoder(bytes.NewReader(blob.Bytes()))
		if err != nil {
			return created, skipped, fmt.Errorf("%w: series %q: %v", ErrFormat, name, err)
		}
		segs, err := encode.ReadAll(dec)
		if err != nil {
			return created, skipped, fmt.Errorf("%w: series %q: %v", ErrFormat, name, err)
		}
		s, err := a.Create(string(name), dec.Epsilon(), dec.Constant())
		if err != nil {
			return created, skipped, err
		}
		created = append(created, string(name))
		n, err := s.Restore(segs, int(points))
		if err != nil {
			return created, skipped, fmt.Errorf("%w: series %q: %v", ErrFormat, name, err)
		}
		skipped += n
	}
	return created, skipped, nil
}

// SaveFile writes the archive to path, replacing any existing file.
func (a *Archive) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := a.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads an archive from path.
func LoadFile(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadArchive(f)
}
