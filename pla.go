// Package pla is an online piece-wise linear approximation library for
// numerical streams with per-point precision guarantees, implementing
//
//	H. Elmeleegy, A. K. Elmagarmid, E. Cecchet, W. G. Aref, W. Zwaenepoel:
//	"Online Piece-wise Linear Approximation of Numerical Streams with
//	Precision Guarantees", VLDB 2009.
//
// A Filter consumes a stream of d-dimensional points (t_j, X_j) with
// strictly increasing timestamps and emits line segments such that every
// consumed point lies within ε_i of the emitted approximation in every
// dimension i (the L∞ guarantee of the paper's Theorems 3.1 and 4.1).
// Four filters are provided:
//
//   - NewSwingFilter — the paper's swing filter (Section 3): connected
//     segments, one recording each, O(1) time and space per point.
//   - NewSlideFilter — the paper's slide filter (Section 4): mostly
//     disconnected segments tracked via an incremental convex hull, the
//     strongest compressor of the four.
//   - NewCacheFilter — the piece-wise constant baseline (Section 2.2),
//     with optional midrange/mean variants.
//   - NewLinearFilter — the piece-wise linear baseline (Section 2.2),
//     connected or disconnected.
//
// Compress pushes a whole signal through a filter; Reconstruct builds the
// receiver-side model; Encode/Decode move recordings over a compact wire
// format. The commands (cmd/plagen generates signals, cmd/plafilter
// compresses them, cmd/plabench regenerates the paper's figures) and the
// examples directory exercise the same filters. The network server is
// the plad binary (cmd/plad); this package ships its clients,
// DialServer and DialQuery.
//
// Quick start:
//
//	f, _ := pla.NewSlideFilter([]float64{0.5})        // ε = 0.5, 1-dim
//	segs, _ := pla.Compress(f, signal)                // []pla.Segment
//	model, _ := pla.Reconstruct(segs)                 // receiver side
//	x, ok := model.Eval(t)                            // x within ε of signal
//	fmt.Println(f.Stats().CompressionRatio())
package pla

import (
	"github.com/pla-go/pla/internal/core"
)

// Core types, re-exported from the implementation package.
type (
	// Point is one sample of a d-dimensional signal: a timestamp plus the
	// observed value vector.
	Point = core.Point
	// Segment is one line segment of a piece-wise linear approximation.
	Segment = core.Segment
	// Filter is an online compressor with an L∞ precision guarantee.
	Filter = core.Filter
	// Stats carries a filter's running counters (points, segments,
	// recordings, lag flushes, hull size).
	Stats = core.Stats

	// Cache is the piece-wise constant baseline filter.
	Cache = core.Cache
	// Linear is the piece-wise linear baseline filter.
	Linear = core.Linear
	// Swing is the paper's swing filter.
	Swing = core.Swing
	// Slide is the paper's slide filter.
	Slide = core.Slide

	// CacheMode selects the cache filter's constant-value rule.
	CacheMode = core.CacheMode
	// SwingRecording selects the swing filter's recording placement.
	SwingRecording = core.SwingRecording
	// CacheOption customises a cache filter.
	CacheOption = core.CacheOption
	// LinearOption customises a linear filter.
	LinearOption = core.LinearOption
	// SwingOption customises a swing filter.
	SwingOption = core.SwingOption
	// SlideOption customises a slide filter.
	SlideOption = core.SlideOption
)

// Swing recording placement modes.
const (
	// RecordMSE minimizes the interval's mean square error (the paper's
	// choice, Eq. 5–6; the default).
	RecordMSE = core.RecordMSE
	// RecordMidline takes the middle of the admissible slope range.
	RecordMidline = core.RecordMidline
	// RecordLast aims at the last observed point, clamped (the
	// "straightforward approach" of Section 3.2; ablation only).
	RecordLast = core.RecordLast
)

// Cache filter value-selection modes.
const (
	// CacheLast records the violating point and predicts it forward (the
	// paper's cache filter).
	CacheLast = core.CacheLast
	// CacheMidrange records the midrange of each interval (PMC-MR).
	CacheMidrange = core.CacheMidrange
	// CacheMean records the mean of each interval (PMC-MEAN).
	CacheMean = core.CacheMean
)

// Errors returned by filters and constructors.
var (
	// ErrDimension reports a point whose dimensionality does not match
	// the filter's.
	ErrDimension = core.ErrDimension
	// ErrTimeOrder reports a timestamp that does not strictly increase.
	ErrTimeOrder = core.ErrTimeOrder
	// ErrNotFinite reports a NaN or infinite coordinate.
	ErrNotFinite = core.ErrNotFinite
	// ErrFinished reports a Push or Finish after Finish.
	ErrFinished = core.ErrFinished
	// ErrEpsilon reports an invalid precision width.
	ErrEpsilon = core.ErrEpsilon
	// ErrMaxLag reports an invalid m_max_lag bound.
	ErrMaxLag = core.ErrMaxLag
)

// NewCacheFilter returns the piece-wise constant baseline filter with
// per-dimension precision widths eps (Section 2.2 of the paper).
func NewCacheFilter(eps []float64, opts ...CacheOption) (*Cache, error) {
	return core.NewCache(eps, opts...)
}

// WithCacheMode selects the cache filter's value rule (default CacheLast).
func WithCacheMode(m CacheMode) CacheOption { return core.WithCacheMode(m) }

// NewLinearFilter returns the piece-wise linear baseline filter with
// per-dimension precision widths eps (Section 2.2 of the paper).
func NewLinearFilter(eps []float64, opts ...LinearOption) (*Linear, error) {
	return core.NewLinear(eps, opts...)
}

// WithDisconnectedSegments makes the linear filter restart each segment
// at the violating point (two recordings per segment).
func WithDisconnectedSegments() LinearOption { return core.WithDisconnectedSegments() }

// NewSwingFilter returns the paper's swing filter with per-dimension
// precision widths eps (Section 3).
func NewSwingFilter(eps []float64, opts ...SwingOption) (*Swing, error) {
	return core.NewSwing(eps, opts...)
}

// WithSwingMaxLag bounds the receiver lag of a swing filter to m points
// per filtering interval (Section 3.3). m must be at least 2.
func WithSwingMaxLag(m int) SwingOption { return core.WithSwingMaxLag(m) }

// WithSwingRecording selects the swing filter's recording placement mode
// (default RecordMSE). All modes preserve the precision guarantee.
func WithSwingRecording(mode SwingRecording) SwingOption { return core.WithSwingRecording(mode) }

// NewSlideFilter returns the paper's slide filter with per-dimension
// precision widths eps (Section 4).
func NewSlideFilter(eps []float64, opts ...SlideOption) (*Slide, error) {
	return core.NewSlide(eps, opts...)
}

// WithSlideMaxLag bounds the receiver lag of a slide filter to m points
// per filtering interval (Section 4.3). m must be at least 2.
func WithSlideMaxLag(m int) SlideOption { return core.WithSlideMaxLag(m) }

// WithHullOptimization toggles the slide filter's convex-hull
// optimization (Lemma 4.3); it is enabled by default and should only be
// disabled for benchmarking the difference.
func WithHullOptimization(enabled bool) SlideOption { return core.WithHullOptimization(enabled) }

// WithConnectionGrid sets the density of the slide filter's connection
// search (default 17 candidates); zero disables connections entirely
// (all-disconnected segments, the Section 4.2 ablation).
func WithConnectionGrid(n int) SlideOption { return core.WithConnectionGrid(n) }

// WithBinaryTangentSearch switches the slide filter's hull-tangent
// updates to the logarithmic chain search; output is identical to the
// default linear scan.
func WithBinaryTangentSearch() SlideOption { return core.WithBinaryTangentSearch() }

// Compress pushes every point of signal through f in order, finishes the
// filter, and returns the complete approximation.
func Compress(f Filter, signal []Point) ([]Segment, error) {
	return core.Run(f, signal)
}

// UniformEpsilon builds a d-dimensional precision vector with every
// component set to eps.
func UniformEpsilon(d int, eps float64) []float64 {
	return core.UniformEpsilon(d, eps)
}

// CountRecordings computes the number of recordings needed to transmit
// segs under the paper's accounting; constant marks piece-wise constant
// (cache filter) output.
func CountRecordings(segs []Segment, constant bool) int {
	return core.CountRecordings(segs, constant)
}
