package main

import "testing"

// TestRun runs the example end to end, as `go run` would.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
