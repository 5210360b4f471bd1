package main

import "testing"

// TestRun runs the example end to end; its log.Fatal on a failed check
// exits non-zero and fails the package.
func TestRun(t *testing.T) { main() }
