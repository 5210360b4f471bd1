package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode"
	"unicode/utf8"

	"github.com/pla-go/pla/internal/tsdb"
)

// Wire protocol. Every connection opens with a 4-byte magic selecting the
// session kind:
//
//	ingest ("PLDI"): uvarint name length + series name, then the standard
//	  encode stream (header, segments, terminator) wrapped in
//	  length-prefixed frames (encode.FrameWriter). The server answers the
//	  handshake with one status byte (0 = accepted; 1 = rejected followed
//	  by a uvarint-length message), and answers the stream terminator —
//	  after every finalized segment of the session has been applied to the
//	  archive — with a final acknowledgement: status byte plus three
//	  uvarints (segments applied, rejected, and a reserved dropped
//	  count that is always 0).
//
//	query ("PLDQ"): a line-oriented text protocol; see query.go.
const (
	magicIngest = "PLDI"
	magicQuery  = "PLDQ"
)

const (
	statusOK  byte = 0
	statusErr byte = 1
	// statusRetune does double duty on retune-capable sessions (ingest
	// handshakes whose stream header sets the retune flag). As the
	// handshake reply it accepts the session AND acknowledges the
	// capability — only after seeing it may the client put opRetune
	// records on the wire, so an old server (which answers statusOK)
	// keeps a perfectly readable stream. Mid-stream it prefixes a
	// server→client renegotiation frame: uvarint dim (0 = keep the
	// current ε) + dim float64 bits (little-endian) + uvarint stride.
	// Old clients never set the flag, so they never see either use.
	statusRetune byte = 2
)

// maxNameLen bounds the series name accepted in an ingest handshake.
const maxNameLen = 255

// validateName enforces the series-name charset on both ends of the
// handshake: 1..maxNameLen bytes of valid UTF-8 with no spaces and no
// control characters. Names travel unescaped through the line-oriented,
// whitespace-split query protocol, so a name containing either would be
// unaddressable at best and able to forge listing rows at worst.
func validateName(name string) error {
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("%w: series name must be 1..%d bytes", ErrProtocol, maxNameLen)
	}
	if !utf8.ValidString(name) {
		return fmt.Errorf("%w: series name is not valid UTF-8", ErrProtocol)
	}
	for _, r := range name {
		if unicode.IsSpace(r) || unicode.IsControl(r) {
			return fmt.Errorf("%w: series name %q contains whitespace or control characters", ErrProtocol, name)
		}
	}
	return nil
}

// Errors surfaced by the protocol layer.
var (
	// ErrProtocol reports a malformed exchange.
	ErrProtocol = errors.New("server: protocol error")
	// ErrRejected wraps a server-side handshake rejection as seen by the
	// client (the cause is in the message text).
	ErrRejected = errors.New("server: rejected")
	// ErrClosed reports an operation on a closed server or client.
	ErrClosed = errors.New("server: closed")
	// ErrNoData reports a query over a time range with no coverage. It
	// is the archive's own sentinel, so errors.Is matches whether the
	// query ran over the wire or against a local tsdb series.
	ErrNoData = tsdb.ErrNoData
)

// Ack is the server's end-of-stream accounting for one ingest session.
type Ack struct {
	// Applied is the number of segments stored in the archive.
	Applied int64
	// Rejected is the number of segments the archive refused (out of
	// time order, typically a second client interleaving on the series,
	// or starting before the previous finalized segment ends).
	Rejected int64
	// Dropped is reserved: it keeps the ack's third wire position, and
	// this server, whose overload policies shed no segment, sends 0.
	Dropped int64
}

func writeUvarint(w io.Writer, v uint64) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	_, err := w.Write(tmp[:n])
	return err
}

// writeHandshake sends the session magic and, for ingest, the series name.
func writeHandshake(w io.Writer, magic, name string) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	if magic != magicIngest {
		return nil
	}
	if err := validateName(name); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(name))); err != nil {
		return err
	}
	_, err := io.WriteString(w, name)
	return err
}

// readName reads the series name of an ingest handshake.
func readName(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("%w: bad name length: %v", ErrProtocol, err)
	}
	if n == 0 || n > maxNameLen {
		return "", fmt.Errorf("%w: series name length %d", ErrProtocol, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("%w: truncated name: %v", ErrProtocol, err)
	}
	name := string(buf)
	if err := validateName(name); err != nil {
		return "", err
	}
	return name, nil
}

func writeStatusOK(w io.Writer) error {
	_, err := w.Write([]byte{statusOK})
	return err
}

func writeStatusErr(w io.Writer, msg string) error {
	if len(msg) > 1<<10 {
		msg = msg[:1<<10]
	}
	if _, err := w.Write([]byte{statusErr}); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(msg))); err != nil {
		return err
	}
	_, err := io.WriteString(w, msg)
	return err
}

// readStatus reads a status byte, returning the remote rejection as an
// error wrapping ErrRejected.
func readStatus(br *bufio.Reader) error {
	b, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: missing status: %v", ErrProtocol, err)
	}
	switch b {
	case statusOK:
		return nil
	case statusErr:
		return readErrBody(br)
	default:
		return fmt.Errorf("%w: unknown status %#x", ErrProtocol, b)
	}
}

// readErrBody reads the message that follows a statusErr byte.
func readErrBody(br *bufio.Reader) error {
	n, err := binary.ReadUvarint(br)
	if err != nil || n > 1<<10 {
		return fmt.Errorf("%w: bad rejection message", ErrProtocol)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return fmt.Errorf("%w: truncated rejection message", ErrProtocol)
	}
	return fmt.Errorf("%w: %s", ErrRejected, msg)
}

// writeRetuneFrame sends one server→client renegotiation: a nil eps
// keeps the session's current precision, stride is the absolute
// decimation stride to run from now on (0 = stop decimating).
func writeRetuneFrame(w io.Writer, eps []float64, stride int) error {
	if _, err := w.Write([]byte{statusRetune}); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(len(eps))); err != nil {
		return err
	}
	var tmp [8]byte
	for _, e := range eps {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(e))
		if _, err := w.Write(tmp[:]); err != nil {
			return err
		}
	}
	return writeUvarint(w, uint64(stride))
}

// readRetuneBody reads the renegotiation payload that follows a
// statusRetune byte mid-stream. eps is nil when the server kept the
// session's current precision.
func readRetuneBody(br *bufio.Reader) (eps []float64, stride int, err error) {
	dim, err := binary.ReadUvarint(br)
	if err != nil || dim > 1<<10 {
		return nil, 0, fmt.Errorf("%w: bad retune frame", ErrProtocol)
	}
	if dim > 0 {
		eps = make([]float64, dim)
		var tmp [8]byte
		for i := range eps {
			if _, err := io.ReadFull(br, tmp[:]); err != nil {
				return nil, 0, fmt.Errorf("%w: truncated retune frame", ErrProtocol)
			}
			eps[i] = math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
			if math.IsNaN(eps[i]) || math.IsInf(eps[i], 0) || eps[i] <= 0 {
				return nil, 0, fmt.Errorf("%w: retune ε[%d] = %v", ErrProtocol, i, eps[i])
			}
		}
	}
	k, err := binary.ReadUvarint(br)
	if err != nil || k == 1 || k > 1<<20 {
		return nil, 0, fmt.Errorf("%w: bad retune stride", ErrProtocol)
	}
	return eps, int(k), nil
}

// writeAck sends the final ingest acknowledgement.
func writeAck(w io.Writer, a Ack) error {
	if err := writeStatusOK(w); err != nil {
		return err
	}
	for _, v := range [...]int64{a.Applied, a.Rejected, a.Dropped} {
		if err := writeUvarint(w, uint64(v)); err != nil {
			return err
		}
	}
	return nil
}

// readAck reads the final ingest acknowledgement (or a rejection).
func readAck(br *bufio.Reader) (Ack, error) {
	if err := readStatus(br); err != nil {
		return Ack{}, err
	}
	return readAckBody(br)
}

// readAckBody reads the three ack counters that follow a statusOK byte.
func readAckBody(br *bufio.Reader) (Ack, error) {
	var a Ack
	for _, p := range [...]*int64{&a.Applied, &a.Rejected, &a.Dropped} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return Ack{}, fmt.Errorf("%w: truncated ack: %v", ErrProtocol, err)
		}
		*p = int64(v)
	}
	return a, nil
}
