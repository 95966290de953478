package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestDensityArtifactRowsPinned regenerates the first two rows of the
// committed BENCH_density.json (N = 8 and 64) and requires them, and
// the sweep settings, to match exactly, with the render on one core and
// on two. Every field is a pure function of the seed, so any drift in
// the medium engine, the synthesis chain or the receiver shows here in
// tier-1, not only in CI's byte comparison of the full sweep; the
// per-chunk peak_overlap and peak_window_samples included.
func TestDensityArtifactRowsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("density rows in -short mode")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_density.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want densityArtifact
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Sweep) < 2 {
		t.Fatalf("committed artifact has %d rows, want at least 2", len(want.Sweep))
	}
	want.Sweep = want.Sweep[:2]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		out := filepath.Join(t.TempDir(), "density.json")
		if err := runDensityBench(want.Seed, want.FramesPerSender, want.MeanGapAirtimes,
			[]int{want.Sweep[0].Senders, want.Sweep[1].Senders}, out); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var got densityArtifact
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: regenerated rows differ from BENCH_density.json:\ngot  %+v\nwant %+v", procs, got, want)
		}
	}
}
