package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDensityBenchSmoke runs a tiny sweep end-to-end and checks the
// artifact has one well-formed row per width. The N=256 byte-identical
// determinism contract is pinned in internal/link
// (TestMediumDensityDeterminism); this is just the CLI plumbing.
func TestDensityBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep in -short mode")
	}
	out := filepath.Join(t.TempDir(), "density.json")
	if err := runDensityBench(1, 2, 4, []int{1, 2}, out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art densityArtifact
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatal(err)
	}
	if art.Benchmark != "density-shared-medium" || len(art.Sweep) != 2 {
		t.Fatalf("artifact shape: benchmark=%q rows=%d", art.Benchmark, len(art.Sweep))
	}
	for i, row := range art.Sweep {
		if row.Sent != row.Senders*art.FramesPerSender || row.DurationSec <= 0 {
			t.Errorf("row %d malformed: %+v", i, row)
		}
	}
}
