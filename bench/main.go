// Command bench is the repository's benchmark: five workloads driven
// against a separately running plad built from the tree it is run in,
// a correctness gate on every one, and an in-process layer trace that
// attributes time to the layers between filter and query. See
// README.md in this directory. From the repository root (bench/run.sh
// keeps the go tool's files inside the checkout; go run -C bench . takes
// the same arguments):
//
//	bash bench/run.sh                         all five workloads, one report
//	bash bench/run.sh -trace spans.json       … plus the layer trace and its span file
//	bash bench/run.sh -runs 10 -o a.json      ten runs per workload, seeds seed … seed+9
//	bash bench/run.sh -compare a.json b.json  per workload × metric verdicts
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                          one run, one JSON line (BENCHMARK.json's command)
//
// Relative file names are taken from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:])) }

// scratchRoot is where builds, data directories and logs go, relative
// to the root of the checkout. .gitignore lists it.
const scratchRoot = ".bench_build"

func run(args []string) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run this one workload and end with the one-line JSON result (default: all five, as a report)")
		seed         = fs.Uint64("seed", 1, "workload seed: all inputs are generated from it")
		seconds      = fs.Int("seconds", defaultSeconds, "run length the fixed work is sized for (rounds scale linearly; shapes never change)")
		trace        = fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, from the scrape and the in-process layer trace; a file name: 1, and write the spans there")
		runs         = fs.Int("runs", 1, "report mode: runs per workload, seeds seed, seed+1, …")
		out          = fs.String("o", "", "report mode: also write the report as JSON to this file")
		compare      = fs.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := enterRepoRoot(); err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two report files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		return 2
	}
	traced, spanFile := *trace != "0", ""
	if traced && *trace != "1" {
		spanFile = *trace
	}

	j := newJanitor()
	defer j.sweep()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		j.sweep()
		os.Exit(130)
	}()
	defer func() {
		// A panic on this goroutine still reaches the deferred sweep
		// above; report it as a failed run rather than a stack trace
		// after a half-printed result.
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "bench: panic:", r)
			code = 1
		}
	}()

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return fatal(err)
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return fatal(err)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return fatal(err)
	}
	j.addDir(dir)
	bin, buildTime, err := buildPlad(dir)
	if err != nil {
		return fatal(err)
	}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }
	logf("built ./cmd/plad in %.2fs", buildTime.Seconds())
	// runOne gives one run of one workload its own scratch directory
	// (data directories, plad logs), gone again when the run returns.
	runOne := func(w *workload, seed uint64) (*outcome, error) {
		runDir, err := os.MkdirTemp(dir, w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(runDir)
		o := newOutcome()
		rc := &runCtx{j: j, bin: bin, dir: runDir, seed: seed, seconds: *seconds, logf: logf}
		if err := w.run(rc, w, o); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return o, nil
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		o, err := runOne(w, *seed)
		if err != nil {
			return fatal(err)
		}
		if traced {
			lt, err := runLayerTrace(dir, *seed, spanFile)
			if err != nil {
				return fatal(fmt.Errorf("layer trace: %w", err))
			}
			for k, v := range lt.metrics {
				o.layer[k] = v
			}
			o.notes = append(o.notes, lt.notes...)
		}
		return printContractLine(o, traced)
	}

	rep := report{Env: readEnv(), Seed: *seed, Seconds: *seconds}
	failed := false
	for _, w := range workloads {
		for r := 0; r < *runs; r++ {
			o, err := runOne(w, *seed+uint64(r))
			if err != nil {
				return fatal(err)
			}
			rep.add(w.name, *seed+uint64(r), o)
			failed = failed || o.failed > 0
		}
	}
	if traced {
		lt, err := runLayerTrace(dir, *seed, spanFile)
		if err != nil {
			return fatal(fmt.Errorf("layer trace: %w", err))
		}
		rep.Trace = lt.metrics
		rep.TraceNotes = lt.notes
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fatal(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// enterRepoRoot changes to the checkout the benchmark sits in: the
// directory it was started in (bench/run.sh, the driver) or its parent
// (go run -C bench .). Everything after is relative to it.
func enterRepoRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "plad", "main.go")); err == nil {
			return os.Chdir(dir)
		}
	}
	return errors.New("start from the repository root or from bench/: ./cmd/plad not found")
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// metricValue is one number on the contract line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine ends a single-workload run: diagnostics to stderr,
// then one JSON object as the last line of stdout — every end-to-end
// metric untraced, every per-layer metric traced. Failed operations
// make the run incorrect and the exit code non-zero.
func printContractLine(o *outcome, traced bool) int {
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "bench: note:", n)
	}
	specs, values := endToEnd, o.e2e
	if traced {
		specs, values = perLayer, o.layer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		line.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(b))
	if o.failed > 0 {
		return 1
	}
	return 0
}

// envBlock says what the numbers were measured on; every report
// carries it.
type envBlock struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readEnv() envBlock {
	e := envBlock{
		Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown",
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	return e
}

// runRecord is one run of one workload in a report file.
type runRecord struct {
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Samples   map[string]int     `json:"samples"`
	Notes     []string           `json:"notes,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

// report is what report mode prints and -o writes; -compare reads two.
type report struct {
	Env        envBlock               `json:"env"`
	Seed       uint64                 `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Workloads  map[string][]runRecord `json:"workloads"`
	Trace      map[string]float64     `json:"trace,omitempty"`
	TraceNotes []string               `json:"trace_notes,omitempty"`
}

func (r *report) add(workload string, seed uint64, o *outcome) {
	if r.Workloads == nil {
		r.Workloads = map[string][]runRecord{}
	}
	r.Workloads[workload] = append(r.Workloads[workload], runRecord{
		Seed: seed, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		EndToEnd: o.e2e, PerLayer: o.layer, Samples: o.samples, Notes: o.notes, Errors: o.errs,
	})
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print renders the report: the env block, then per workload every
// end-to-end metric and every scrape-sourced per-layer metric that is
// not zero, by name with its unit (the median over the runs, and the
// spread when there is more than one), then the layer-trace table.
func (r *report) print(w *os.File) {
	e := r.Env
	fmt.Fprintf(w, "env: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, kernel %s; seed %d, sized for %ds\n",
		e.Commit, e.Go, e.CPU, e.NumCPU, e.GOMAXPROCS, e.Kernel, r.Seed, r.Seconds)
	row := func(m metricSpec, vals []float64) {
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, median(vals), m.Unit)
		if len(vals) > 1 && median(vals) != 0 {
			line += fmt.Sprintf("  spread %.1f%% over %d runs", 100*spread(vals), len(vals))
		}
		if m.Bound > 0 {
			line += fmt.Sprintf("  (bound %.0f%%)", 100*m.Bound)
		}
		fmt.Fprintln(w, line)
	}
	for _, wl := range workloads {
		recs := r.Workloads[wl.name]
		if len(recs) == 0 {
			continue
		}
		var attempted, failed int64
		for _, rec := range recs {
			attempted += rec.Attempted
			failed += rec.Failed
		}
		fmt.Fprintf(w, "\n%s — %s\n  operations attempted %d, failed %d; samples %v\n", wl.name, wl.why, attempted, failed, recs[0].Samples)
		for _, rec := range recs {
			for _, msg := range rec.Errors {
				fmt.Fprintf(w, "  FAILED (seed %d): %s\n", rec.Seed, msg)
			}
			for _, msg := range rec.Notes {
				fmt.Fprintf(w, "  note (seed %d): %s\n", rec.Seed, msg)
			}
		}
		collect := func(pick func(runRecord) map[string]float64, name string) []float64 {
			vals := make([]float64, len(recs))
			for i, rec := range recs {
				vals[i] = pick(rec)[name]
			}
			return vals
		}
		for _, m := range endToEnd {
			row(m, collect(func(rec runRecord) map[string]float64 { return rec.EndToEnd }, m.Name))
		}
		for _, m := range perLayer {
			if _, ok := recs[0].PerLayer[m.Name]; ok {
				row(m, collect(func(rec runRecord) map[string]float64 { return rec.PerLayer }, m.Name))
			}
		}
	}
	if r.Trace == nil {
		return
	}
	fmt.Fprintln(w, "\nlayer trace (in-process, single goroutine, 1/16-size inputs)")
	for _, m := range perLayer {
		if v, ok := r.Trace[m.Name]; ok {
			row(m, []float64{v})
		}
	}
	for _, n := range r.TraceNotes {
		fmt.Fprintln(w, "  "+n)
	}
}
