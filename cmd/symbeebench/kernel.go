package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"time"

	"symbee/internal/cli"
	"symbee/internal/core"
	"symbee/internal/dsp"
)

// kernelRates is one measurement row: million phase extractions per
// second for each kernel variant on one core.
type kernelRates struct {
	ExactMsps float64 `json:"exact_msps"`
	FastMsps  float64 `json:"fast_msps"`
	// Speedup is FastMsps/ExactMsps — the machine-independent figure the
	// CI regression gate compares (absolute Msps varies with the runner).
	Speedup float64 `json:"speedup"`
}

// kernelBenchArtifact is the schema of BENCH_kernel.json.
type kernelBenchArtifact struct {
	Benchmark string      `json:"benchmark"`
	Samples   int         `json:"samples_per_pass"`
	MaxErr    float64     `json:"measured_max_err"`
	ErrBound  float64     `json:"documented_err_bound"`
	Single    kernelRates `json:"single"`
}

// kernelRegressionTolerance is how far the fast/exact speedup may fall
// below the committed baseline before CI fails (>20% per the issue).
const kernelRegressionTolerance = 0.20

// runKernelBench measures the phase-extraction kernels in isolation:
// exact math.Atan2 and the polynomial FastAtan2, on one core. The
// inputs are the lag products a real receiver feeds the kernel
// (x[n]·conj(x[n+lag]) over noise), so branch behavior matches the
// idle-listening workload rather than a friendly sweep.
func runKernelBench(seed int64, samples int, outPath, baselinePath string) error {
	if samples < 1 {
		return fmt.Errorf("-kernel-samples must be positive, got %d", samples)
	}
	p := core.Params20()
	rng := rand.New(rand.NewSource(seed))
	iq := make([]complex128, samples+p.Lag)
	for i := range iq {
		iq[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	prod := make([]complex128, samples)
	for i := range prod {
		prod[i] = iq[i+p.Lag] * cmplx.Conj(iq[i])
	}

	maxErr := 0.0
	for _, v := range prod {
		d := math.Abs(dsp.FastAtan2(imag(v), real(v)) - math.Atan2(imag(v), real(v)))
		if d > maxErr {
			maxErr = d
		}
	}

	exact := func() float64 {
		s := 0.0
		for _, v := range prod {
			s += math.Atan2(imag(v), real(v))
		}
		return s
	}
	fast := func() float64 {
		s := 0.0
		for _, v := range prod {
			s += dsp.FastAtan2(imag(v), real(v))
		}
		return s
	}

	fmt.Printf("phase kernel bench: %d lag-product samples per pass\n", samples)
	fmt.Printf("  fast-vs-exact max |Δ| on bench inputs: %.3g (documented bound %.3g)\n",
		maxErr, dsp.FastAtan2MaxErr)

	measure := func(f func() float64) float64 {
		// Calibrate: passes targeting ~300ms of wall time.
		start := time.Now()
		sinkF += f()
		per := time.Since(start)
		passes := int(300*time.Millisecond/per) + 1
		start = time.Now()
		for i := 0; i < passes; i++ {
			sinkF += f()
		}
		elapsed := time.Since(start).Seconds()
		return float64(passes) * float64(samples) / elapsed / 1e6
	}

	single := kernelRates{ExactMsps: measure(exact), FastMsps: measure(fast)}
	single.Speedup = single.FastMsps / single.ExactMsps
	fmt.Printf("  one core: exact %.1f Msps, fast %.1f Msps (%.2fx)\n",
		single.ExactMsps, single.FastMsps, single.Speedup)
	art := kernelBenchArtifact{
		Benchmark: "phase-kernel",
		Samples:   samples,
		MaxErr:    maxErr,
		ErrBound:  dsp.FastAtan2MaxErr,
		Single:    single,
	}

	if wrote, err := cli.WriteJSON(outPath, art); err != nil {
		return err
	} else if wrote {
		fmt.Printf("  wrote %s\n", outPath)
	}
	if baselinePath != "" {
		return checkKernelBaseline(art, baselinePath)
	}
	return nil
}

// checkKernelBaseline compares the run against a committed baseline
// artifact and fails on a >20% regression. The gate is the fast/exact
// speedup ratio, not absolute Msps: CI runners differ wildly in clock
// rate, but the ratio only moves when the kernel itself changes shape.
func checkKernelBaseline(art kernelBenchArtifact, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kernel baseline: %w", err)
	}
	var base kernelBenchArtifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("kernel baseline %s: %w", path, err)
	}
	floor := base.Single.Speedup * (1 - kernelRegressionTolerance)
	fmt.Printf("  baseline gate: speedup %.2fx vs baseline %.2fx (floor %.2fx)\n",
		art.Single.Speedup, base.Single.Speedup, floor)
	if art.Single.Speedup < floor {
		return fmt.Errorf("kernel regression: fast/exact speedup %.2fx fell >%d%% below baseline %.2fx",
			art.Single.Speedup, int(kernelRegressionTolerance*100), base.Single.Speedup)
	}
	if art.MaxErr > art.ErrBound {
		return fmt.Errorf("kernel accuracy: measured max error %.3g exceeds documented bound %.3g",
			art.MaxErr, art.ErrBound)
	}
	return nil
}

// sinkF defeats dead-code elimination of the measured kernels.
var sinkF float64
