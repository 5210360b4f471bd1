// Package experiments regenerates every figure of the paper's evaluation
// (Section 5, Figures 6–13). Each FigN function runs the corresponding
// workload sweep and returns a Table whose rows mirror the series the
// paper plots, and cmd/plabench renders them as text. Absolute numbers
// differ from the paper's (the sea surface temperature data is
// synthetic, the hardware is not a 2009 Pentium 4), but the comparisons
// the paper draws — which filter wins, by roughly what factor, where the
// curves cross — are what these harnesses reproduce.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/pla-go/pla/internal/core"
	"github.com/pla-go/pla/internal/recon"
)

// Config tunes the harnesses.
type Config struct {
	// Quick shrinks the synthetic workloads (for tests and smoke runs).
	Quick bool
	// Seed offsets the generator seeds, for sensitivity checks. Zero is
	// the canonical setting, the one plabench runs by default.
	Seed uint64
}

func (c Config) walkN() int {
	if c.Quick {
		return 2000
	}
	return 10000
}

// Table is one regenerated figure: a labelled x column plus one series
// per filter.
type Table struct {
	ID      string
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	// Notes carries figure-specific commentary (e.g. derived thresholds).
	Notes []string
}

// Row is one x position of a figure.
type Row struct {
	X      string
	Values []float64
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = formatValue(v)
		}
	}
	for j, c := range t.Columns {
		widths[j+1] = len(c)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	head := make([]string, 0, len(widths))
	head = append(head, pad(t.XLabel, widths[0]))
	for j, c := range t.Columns {
		head = append(head, pad(c, widths[j+1]))
	}
	fmt.Fprintln(w, strings.Join(head, "  "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.Join(head, "  "))))
	for i, r := range t.Rows {
		row := make([]string, 0, len(widths))
		row = append(row, pad(r.X, widths[0]))
		for j := range t.Columns {
			cell := ""
			if j < len(cells[i]) {
				cell = cells[i][j]
			}
			row = append(row, pad(cell, widths[j+1]))
		}
		fmt.Fprintln(w, strings.Join(row, "  "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e6:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FilterNames lists the four filters of the paper's evaluation, in its
// plotting order.
var FilterNames = []string{"cache", "linear", "swing", "slide"}

// NewFilter constructs one of the evaluation's filters by name;
// "slide-nonopt" is the non-optimized slide of Figure 13.
func NewFilter(name string, eps []float64) (core.Filter, error) {
	switch name {
	case "cache":
		return core.NewCache(eps)
	case "cache-midrange":
		return core.NewCache(eps, core.WithCacheMode(core.CacheMidrange))
	case "cache-mean":
		return core.NewCache(eps, core.WithCacheMode(core.CacheMean))
	case "linear":
		return core.NewLinear(eps)
	case "linear-disc":
		return core.NewLinear(eps, core.WithDisconnectedSegments())
	case "swing":
		return core.NewSwing(eps)
	case "slide":
		return core.NewSlide(eps)
	case "slide-nonopt":
		return core.NewSlide(eps, core.WithHullOptimization(false))
	default:
		return nil, fmt.Errorf("experiments: unknown filter %q", name)
	}
}

// run filters signal and returns the segments plus the filter's stats.
func run(name string, signal []core.Point, eps []float64) ([]core.Segment, core.Stats, error) {
	f, err := NewFilter(name, eps)
	if err != nil {
		return nil, core.Stats{}, err
	}
	segs, err := core.Run(f, signal)
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return segs, f.Stats(), nil
}

// CompressionRatio runs the named filter and returns the paper's §5.1
// compression ratio.
func CompressionRatio(name string, signal []core.Point, eps []float64) (float64, error) {
	_, st, err := run(name, signal, eps)
	if err != nil {
		return 0, err
	}
	return st.CompressionRatio(), nil
}

// AverageError runs the named filter and returns the mean absolute
// reconstruction error of dimension 0 (the paper's Figure 8 metric).
func AverageError(name string, signal []core.Point, eps []float64) (float64, error) {
	segs, _, err := run(name, signal, eps)
	if err != nil {
		return 0, err
	}
	model, err := recon.NewModel(segs)
	if err != nil {
		return 0, err
	}
	st := recon.Measure(signal, model)
	return st.MeanAbs[0], nil
}

// sstEpsSweep returns the precision widths (as fraction of the SST range)
// used by Figures 7 and 8.
var sstEpsSweep = []float64{0.00032, 0.001, 0.00316, 0.01, 0.0316, 0.1}

// All runs every figure and returns the tables in order.
func All(cfg Config) ([]*Table, error) {
	figs := []func(Config) (*Table, error){
		Fig6, Fig7, Fig8, Fig9, Fig10, Fig11, Fig12, Fig13,
	}
	out := make([]*Table, 0, len(figs))
	for _, f := range figs {
		t, err := f(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
