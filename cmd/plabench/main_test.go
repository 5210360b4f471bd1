package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunFigure(t *testing.T) {
	code, out, errOut := runArgs("-experiment", "fig6", "-quick")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "fig6 — ") || !strings.Contains(out, "repeated consecutive values") {
		t.Fatalf("fig6 table not rendered:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	code, out, errOut := runArgs("-experiment", "fig99")
	if code == 0 {
		t.Fatalf("unknown experiment exited 0, stdout %q", out)
	}
	if !strings.Contains(errOut, `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q lacks the error message", errOut)
	}
}

func TestRunDumpSST(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	if code, _, errOut := runArgs("-dump-sst", path); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 || strings.Count(lines[0], ",") != 1 {
		t.Fatalf("want a t,x CSV, got %d lines starting %q", len(lines), lines[0])
	}
}

// TestRunRejectsServerFlags pins plabench to the figure tool: the server
// measurement flags it once had belong to bench/ now.
func TestRunRejectsServerFlags(t *testing.T) {
	for _, flag := range []string{"-server-bench", "-extent-bench", "-rollup-bench", "-pressure-bench", "-o"} {
		code, _, errOut := runArgs(flag)
		if code != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%s: exit %d, stderr %q", flag, code, errOut)
		}
	}
}
