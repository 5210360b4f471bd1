package server

import (
	"fmt"
	"net"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/encode"
	"github.com/pla-go/pla/internal/tsdb"
	"github.com/pla-go/pla/internal/udpingest"
)

// ListenUDP starts the server's datagram ingest transport on addr with
// the given number of per-core SO_REUSEPORT listeners (0 means one per
// core). UDP sessions land in the same shard pool, write-ahead log and
// archive as TCP sessions; only the wire differs. The returned address
// carries the bound port when addr asked for ":0". One UDP endpoint per
// server; Shutdown drains it like any other listener.
func (s *Server) ListenUDP(addr string, listeners int) (net.Addr, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.udp != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: udp ingest already listening on %s", s.udp.Addr())
	}
	s.mu.Unlock()
	u, err := udpingest.Listen(addr, &udpSink{s: s}, udpingest.Config{
		Listeners: listeners,
		Logf:      s.cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing || s.udp != nil {
		s.mu.Unlock()
		u.Close()
		return nil, ErrClosed
	}
	s.udp = u
	s.mu.Unlock()
	return u.Addr(), nil
}

// UDPAddr returns the bound datagram ingest address, or nil when
// ListenUDP has not been called.
func (s *Server) UDPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.udp == nil {
		return nil
	}
	return s.udp.Addr()
}

// udpSink adapts the server's shard pool to the udpingest transport: a
// session's hello opens a series exactly like a TCP handshake, and its
// decoded segments ride the same shard jobs.
type udpSink struct{ s *Server }

func (k *udpSink) Open(name string, dec *encode.Decoder) (udpingest.SessionSink, error) {
	s := k.s
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return nil, ErrClosed
	}
	if err := validateName(name); err != nil {
		return nil, err
	}
	series, _, err := s.db.GetOrCreate(name, dec.Epsilon(), dec.Constant())
	if err != nil {
		return nil, err
	}
	s.sessions.Add(1)
	s.udpSessions.Add(1)
	s.active.Add(1)
	sh := s.shards[shardIndex(name, len(s.shards))]
	sh.active.Add(1)
	us := &udpSession{s: s, sh: sh, series: series, sess: &ingestSession{}}
	if m := dec.MaxLag(); m > 0 {
		series.SetLagHint(m)
		sh.lagSessions.Add(1)
		us.lagged = true
	}
	return us, nil
}

// udpSession is one datagram session's shard binding. Apply runs on the
// session's decode goroutine, so per-series order into the shard queue
// is preserved just as it is for a TCP connection.
type udpSession struct {
	s      *Server
	sh     *shard
	series *tsdb.Series
	sess   *ingestSession
	lagged bool
}

func (u *udpSession) Apply(seg core.Segment, wire int64) {
	u.s.udpSegments.Add(1)
	u.sh.enqueue(job{sess: u.sess, series: u.series, seg: seg, bytes: wire}, u.s.cfg.Policy)
}

func (u *udpSession) Close(commit bool, tail int64) (udpingest.Ack, error) {
	defer func() {
		if u.lagged {
			u.sh.lagSessions.Add(-1)
		}
		u.sh.active.Add(-1)
		u.s.active.Add(-1)
	}()
	if !commit {
		// Abrupt end (idle timeout, shutdown, corrupt stream): whatever
		// reached the queue still drains; there is no one left to ack.
		return udpingest.Ack{}, nil
	}
	// Fence behind everything this session enqueued, exactly like the
	// TCP terminator: the barrier carries the trailing wire bytes and
	// brings back the WAL commit verdict.
	barrier := make(chan error, 1)
	u.sh.enqueue(job{barrier: barrier, bytes: tail}, Block)
	if err := <-barrier; err != nil {
		return udpingest.Ack{}, fmt.Errorf("wal commit failed: %v", err)
	}
	a := u.sess.ack()
	return udpingest.Ack{Applied: a.Applied, Rejected: a.Rejected}, nil
}

// Ingestor is the transport-independent ingest client: both the TCP
// Client and the udpingest client satisfy it, so callers pick a wire
// with DialTransport and stream the same way over either.
type Ingestor interface {
	Send(p core.Point) error
	SendBatch(ps []core.Point) error
	Flush() error
	Stats() core.Stats
	BytesSent() int64
	Close() (Ack, error)
}

// DialTransport connects an ingest session for name over the named
// transport: "tcp" (or "") for the framed stream protocol, "udp" for
// the datagram transport.
func DialTransport(transport, addr, name string, f core.Filter) (Ingestor, error) {
	switch transport {
	case "", "tcp":
		return Dial(addr, name, f)
	case "udp":
		c, err := udpingest.Dial(addr, name, f)
		if err != nil {
			return nil, err
		}
		return &udpIngestor{c: c}, nil
	default:
		return nil, fmt.Errorf("server: unknown ingest transport %q (want tcp or udp)", transport)
	}
}

// DialSpecTransport is DialTransport with the filter built from a spec,
// mirroring DialSpec.
func DialSpecTransport(transport, addr, name string, spec FilterSpec) (Ingestor, error) {
	f, err := spec.NewFilter()
	if err != nil {
		return nil, err
	}
	return DialTransport(transport, addr, name, f)
}

// udpIngestor narrows the udpingest client to the Ingestor interface,
// translating its ack type.
type udpIngestor struct{ c *udpingest.Client }

func (u *udpIngestor) Send(p core.Point) error         { return u.c.Send(p) }
func (u *udpIngestor) SendBatch(ps []core.Point) error { return u.c.SendBatch(ps) }
func (u *udpIngestor) Flush() error                    { return u.c.Flush() }
func (u *udpIngestor) Stats() core.Stats               { return u.c.Stats() }
func (u *udpIngestor) BytesSent() int64                { return u.c.BytesSent() }

func (u *udpIngestor) Close() (Ack, error) {
	a, err := u.c.Close()
	return Ack{Applied: a.Applied, Rejected: a.Rejected, Dropped: a.Dropped}, err
}
