package pla

import "github.com/pla-go/pla/internal/server"

// Clients of the plad server, re-exported for external modules, which
// cannot import internal/: an ingest session streams ε-filtered
// segments into plad's archive, and a query session reads it back with
// ±ε bands.
type (
	// IngestClient is the sensor side of an ingest session.
	IngestClient = server.Client
	// QueryClient speaks the line-oriented query protocol.
	QueryClient = server.QueryClient
	// Ack is the server's end-of-stream accounting for one session.
	Ack = server.Ack
	// Aggregate is a queried statistic with its precision band.
	Aggregate = server.Aggregate
	// SeriesInfo is one row of a series listing.
	SeriesInfo = server.SeriesInfo
	// FilterSpec names a filter configuration (kind, ε, max lag) for
	// by-name construction.
	FilterSpec = server.FilterSpec
	// LagInfo is a series' freshness accounting as reported by LAG.
	LagInfo = server.LagInfo
)

// Errors surfaced by the clients.
var (
	// ErrNoData reports a query range with no coverage.
	ErrNoData = server.ErrNoData
	// ErrRejected wraps a server-side rejection (bad handshake,
	// contract mismatch, unknown series).
	ErrRejected = server.ErrRejected
)

// DialServer opens an ingest session for the named series, streaming
// through filter f; only finalized segments cross the wire — plus, for
// a filter carrying a max-lag bound (WithSwingMaxLag/WithSlideMaxLag),
// the provisional receiver updates that keep the server's archive from
// trailing the sensor by m or more points (§3.3/§4.3). Lag-bounded
// sessions may call Flush to heartbeat a quiet stream.
func DialServer(addr, name string, f Filter) (*IngestClient, error) {
	return server.Dial(addr, name, f)
}

// DialServerSpec is DialServer with the filter constructed by name from
// spec.
func DialServerSpec(addr, name string, spec FilterSpec) (*IngestClient, error) {
	return server.DialSpec(addr, name, spec)
}

// DialQuery opens a query session.
func DialQuery(addr string) (*QueryClient, error) { return server.DialQuery(addr) }
