package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict is what one workload × metric row of a comparison says.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's runs in the base (a) and in the candidate
// (b). The row is unresolved when either side's own run-to-run spread
// is wider than the bound, because a difference of that size then says
// nothing; regressed when b's median is worse than a's by more than the
// bound; ok otherwise.
func judge(m metricSpec, a, b []float64) verdict {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma // as a share of the base, positive when b is worse
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return verdictUnresolved
	case worse > m.Bound:
		return verdictRegressed
	}
	return verdictOK
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// report files (-o): both medians, their ratio with a as the base, each
// side's spread, the metric's bound and the verdict. It returns 1 when
// any row regressed or a file cannot be read, 0 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	ra, err := readReport(pathA)
	if err != nil {
		return fatal(err)
	}
	rb, err := readReport(pathB)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(w, "a: %s (commit %s, %s)\nb: %s (commit %s, %s)\n",
		pathA, ra.Env.Commit, ra.Env.Go, pathB, rb.Env.Commit, rb.Env.Go)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb/a\tspread a\tspread b\tbound\tverdict")
	counts := map[verdict]int{}
	for _, wl := range workloads {
		runsA, runsB := ra.Workloads[wl.name], rb.Workloads[wl.name]
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		for _, m := range endToEnd {
			a, b := e2eValues(runsA, m.Name), e2eValues(runsB, m.Name)
			v := judge(m, a, b)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, m.Name, m.Unit, median(a), median(b), median(b)/median(a),
				100*spread(a), 100*spread(b), 100*m.Bound, v)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n",
		counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return 1
	}
	return 0
}

func e2eValues(runs []runRecord, name string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.EndToEnd[name]
	}
	return vals
}
