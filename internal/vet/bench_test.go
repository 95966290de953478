package vet

import (
	"testing"
)

// BenchmarkVetRun is the self-bench the nightly workflow tracks: one
// whole-module load up front (amortized — the load dominates wall time
// and the JSON report splits it out as load_ms), then b.N runs of the
// full 9-analyzer suite over every unit. The parallel fan-out in Run
// makes this scale with GOMAXPROCS; regressions here mean an analyzer
// grew a super-linear walk.
func BenchmarkVetRun(b *testing.B) {
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	analyzers := Analyzers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(prog, analyzers)
	}
}

// BenchmarkVetLoad tracks the parse/type-check half separately, so a
// load regression cannot hide inside the analysis number.
func BenchmarkVetLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Load("../..", []string{"./internal/dsp", "./internal/splitmix"}); err != nil {
			b.Fatalf("Load: %v", err)
		}
	}
}
