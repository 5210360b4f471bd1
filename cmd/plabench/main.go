// Command plabench regenerates the figures of the paper's evaluation
// (Section 5, Figures 6–13) and prints each as an aligned text table.
//
// Usage:
//
//	plabench [-experiment all|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|ablation]
//	         [-quick] [-seed n] [-dump-sst file.csv]
//
// -quick shrinks the synthetic workloads for a fast smoke run; the
// default sizes with -seed 0 are the canonical setting. -dump-sst writes
// the synthetic sea-surface-temperature series behind Figure 6 as CSV
// and exits. plabench measures the filters only; the plad server is
// measured end to end by the benchmark in bench/ (bash bench/run.sh).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/pla-go/pla/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one plabench invocation and returns its exit code: 0 on
// success (and for -h), 2 for a flag error, 1 when the run fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "figure to regenerate (all, fig6 … fig13, ablation)")
		quick      = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		seed       = fs.Uint64("seed", 0, "seed offset for the synthetic workloads (0 = canonical)")
		dumpSST    = fs.String("dump-sst", "", "write the Figure 6 series as CSV to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := regenerate(stdout, *experiment, *dumpSST, experiments.Config{Quick: *quick, Seed: *seed}); err != nil {
		fmt.Fprintln(stderr, "plabench:", err)
		return 1
	}
	return 0
}

func regenerate(w io.Writer, experiment, dumpSST string, cfg experiments.Config) error {
	if dumpSST != "" {
		f, err := os.Create(dumpSST)
		if err != nil {
			return err
		}
		if err := experiments.DumpSST(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote sea-surface-temperature series to %s\n", dumpSST)
		return nil
	}

	if experiment == "all" {
		tables, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Render(w)
		}
		return nil
	}
	figs := map[string]func(experiments.Config) (*experiments.Table, error){
		"fig6":     experiments.Fig6,
		"fig7":     experiments.Fig7,
		"fig8":     experiments.Fig8,
		"fig9":     experiments.Fig9,
		"fig10":    experiments.Fig10,
		"fig11":    experiments.Fig11,
		"fig12":    experiments.Fig12,
		"fig13":    experiments.Fig13,
		"ablation": experiments.Ablations,
	}
	fn, ok := figs[strings.ToLower(experiment)]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, fig6…fig13, or ablation)", experiment)
	}
	t, err := fn(cfg)
	if err != nil {
		return err
	}
	t.Render(w)
	return nil
}
