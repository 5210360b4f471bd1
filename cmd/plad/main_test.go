package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestPolicyFlagRejectsShedding runs plad's main with each overload
// policy it no longer has: start-up must exit non-zero and name the two
// it does.
func TestPolicyFlagRejectsShedding(t *testing.T) {
	if p := os.Getenv("PLAD_TEST_POLICY"); p != "" {
		os.Args = []string{"plad", "-addr", "127.0.0.1:0", "-policy", p}
		main()
		return
	}
	for _, policy := range []string{"drop", "drop-oldest"} {
		// A policy that were accepted would serve; the deadline ends it.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestPolicyFlagRejectsShedding$")
		cmd.Env = append(os.Environ(), "PLAD_TEST_POLICY="+policy)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("-policy %s: got %v, want a non-zero exit\n%s", policy, err, out)
		}
		if !strings.Contains(string(out), "want block or sample") {
			t.Errorf("-policy %s: message does not name the two policies:\n%s", policy, out)
		}
	}
}
