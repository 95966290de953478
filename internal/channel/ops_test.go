package channel

import (
	"math"
	"math/rand"
	"testing"

	"symbee/internal/dsp"
	"symbee/internal/testutil"
)

func TestAddAWGNPower(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 100000)
	AddAWGN(x, 2.5, rng)
	if p := dsp.Power(x); math.Abs(p-2.5) > 0.1 {
		t.Errorf("noise power = %v, want 2.5", p)
	}
	// Non-positive power is a no-op.
	y := []complex128{1}
	AddAWGN(y, 0, rng)
	if y[0] != 1 {
		t.Error("zero-power noise modified signal")
	}
}

func TestAddNoiseAtSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = 2 // signal power 4
	}
	np := AddNoiseAtSNR(x, 6, rng) // SNR 6 dB → noise power ≈ 1.0047
	want := 4 / dsp.FromDB(6)
	if math.Abs(np-want) > 1e-9 {
		t.Errorf("noise power = %v, want %v", np, want)
	}
	if got := AddNoiseAtSNR(nil, 6, rng); got != 0 {
		t.Errorf("empty signal noise power = %v", got)
	}
}

func TestApplyCFOShiftsSpectrum(t *testing.T) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = 1 // DC tone
	}
	ApplyCFO(x, 3e6, 20e6)
	spec := testutil.SpectrumPower(x)
	best := 0
	for k, p := range spec {
		if p > spec[best] {
			best = k
		}
	}
	want := int(3e6 / 20e6 * float64(len(spec)))
	if best != want {
		t.Errorf("peak bin = %d, want %d", best, want)
	}
}

func TestRicianGainStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []float64{0, 1, 10, 100} {
		var power float64
		const n = 20000
		for i := 0; i < n; i++ {
			g := RicianGain(k, rng)
			power += real(g)*real(g) + imag(g)*imag(g)
		}
		power /= n
		if math.Abs(power-1) > 0.05 {
			t.Errorf("K=%v: mean gain power = %v, want 1", k, power)
		}
	}
	// Negative K is clamped to Rayleigh, not NaN.
	g := RicianGain(-5, rng)
	if math.IsNaN(real(g)) || math.IsNaN(imag(g)) {
		t.Error("negative K produced NaN")
	}
}

func TestRicianHighKIsNearlyDeterministicAmplitude(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		g := RicianGain(1000, rng)
		amp := math.Hypot(real(g), imag(g))
		if math.Abs(amp-1) > 0.15 {
			t.Fatalf("K=1000 amplitude %v strays from 1", amp)
		}
	}
}

func TestMultipathProfileApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := TypicalIndoorMultipath(20e6, 6)
	if p.DelaysSamples[1] != 1 || p.DelaysSamples[2] != 3 {
		t.Errorf("delays = %v, want [0 1 3]", p.DelaysSamples)
	}
	x := make([]complex128, 10000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	// Average output power over many realizations ≈ input power.
	var ratio float64
	const trials = 200
	for i := 0; i < trials; i++ {
		y := p.Apply(x, rng)
		if len(y) != len(x) {
			t.Fatalf("length changed: %d", len(y))
		}
		ratio += dsp.Power(y) / dsp.Power(x)
	}
	ratio /= trials
	if math.Abs(ratio-1) > 0.15 {
		t.Errorf("mean power ratio = %v, want ≈1", ratio)
	}
	// Nil profile passes through.
	var nilProf *MultipathProfile
	if got := nilProf.Apply(x, rng); &got[0] != &x[0] {
		t.Error("nil profile should return input unchanged")
	}
}

func TestLinkBudget(t *testing.T) {
	b := LinkBudget{SNR1m: 27, Exponent: 2, ShadowSigma: 0, WallLoss: 6}
	if got := b.MeanSNR(10, 0, 0); math.Abs(got-7) > 1e-12 {
		t.Errorf("SNR(10m) = %v, want 7", got)
	}
	if got := b.MeanSNR(10, -5, 0); math.Abs(got-2) > 1e-12 {
		t.Errorf("SNR(10m,-5dBm) = %v, want 2", got)
	}
	if got := b.MeanSNR(10, 0, 2); math.Abs(got-(-5)) > 1e-12 {
		t.Errorf("SNR(10m,2 walls) = %v, want -5", got)
	}
	// Distances below 1 m clamp.
	if got := b.MeanSNR(0.1, 0, 0); got != 27 {
		t.Errorf("SNR(0.1m) = %v, want 27", got)
	}
	// Shadowing draws vary around the mean.
	b.ShadowSigma = 4
	rng := rand.New(rand.NewSource(6))
	var sum, sumSq float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := b.DrawSNR(10, 0, 0, rng)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-7) > 0.3 || math.Abs(std-4) > 0.3 {
		t.Errorf("shadowed SNR mean %v std %v, want 7 / 4", mean, std)
	}
}
