package server_test

// Golden reply transcript: a fixed AGG/QUANTILE script over a fixed
// archive with a rollup ladder, pinned byte-for-byte under
// testdata/query_golden.txt. Every reply's value, bound and [lo, hi]
// band is composed from the data that answered it, so a refactor of
// that composition must leave this file untouched.
//
// Regenerate with `go test ./internal/server -run TestQueryGolden -update`
// ONLY for an intentional change to what a reply says. The backend
// parity tests (backend_test.go) pin their transcripts the same way,
// one testdata/<test>_golden.txt each.

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/pla-go/pla/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*_golden.txt transcripts (reply changes only)")

// transcript runs cmds over one query session and renders each command
// with its reply: "> cmd" and then the reply's lines. A listing reply
// (SERIES, METRICS, SCAN, QUANTILE answered "OK") runs to its lone "."
// line; every other reply is one line.
func transcript(t *testing.T, addr string, cmds []string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	if _, err := conn.Write([]byte("PLDQ")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	readLine := func() string {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		return line
	}
	var sb strings.Builder
	for _, cmd := range cmds {
		if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "> %s\n", cmd)
		line := readLine()
		sb.WriteString(line)
		switch strings.ToUpper(strings.Fields(cmd)[0]) {
		case "SERIES", "METRICS", "SCAN", "QUANTILE":
			for listing := line == "OK\n"; listing && line != ".\n"; {
				line = readLine()
				sb.WriteString(line)
			}
		}
	}
	return sb.String()
}

// checkGolden compares got with testdata/<name>, rewriting the file
// first under -update, and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden transcript (run -update once to create): %v", err)
	}
	if d := firstDiff(got, string(raw)); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
}

// firstDiff describes the first line where two transcripts differ, or
// returns "" when they are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("transcript differs at line %d:\ngot:  %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("transcript has %d lines, want %d", len(gl), len(wl))
}

// goldenScript is every AGG op and a 7-point QUANTILE, over one series,
// another and the * fan-out, across a full, a clipped, a narrow and a
// single-point range. Without BOUND the base answers; at ingest ε=0.5
// BOUND 2 fits the 4× tier and BOUND 8 and 100 the 16× tier, wherever
// the tier covers the range.
func goldenScript() []string {
	var cmds []string
	for _, series := range []string{"walk-0", "walk-2", "*"} {
		for _, rng := range []string{"0 4000", "1234.5 100000", "1000.25 1010.75", "0 0"} {
			for _, bound := range []string{"", " BOUND 2", " BOUND 8", " BOUND 100"} {
				for _, op := range []string{"min", "max", "avg", "sum", "count"} {
					cmds = append(cmds, fmt.Sprintf("AGG %s %s 0 %s%s", op, series, rng, bound))
				}
				cmds = append(cmds, fmt.Sprintf("QUANTILE %s 0 %s 0 0.1 0.25 0.5 0.75 0.9 1%s", series, rng, bound))
			}
		}
	}
	return cmds
}

// TestQueryGolden replays goldenScript against three random walks
// ingested at ε=0.5 with the 4×/16× ladder built by a compaction sweep,
// and requires the transcript to match the committed file exactly.
func TestQueryGolden(t *testing.T) {
	s, addr := startBackend(t, t.TempDir(), server.BackendMem, withTiers)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx)
		cancel()
	}()
	if res, err := round(addr, "walk", walks(3, 4000), 0, 0); err != nil || res.Rejected != 0 || res.Dropped != 0 {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, "query_golden.txt", transcript(t, addr, goldenScript()))
}
