package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWrapPhase(t *testing.T) {
	tests := []struct {
		name string
		in   float64
		want float64
	}{
		{"zero", 0, 0},
		{"pi stays pi", math.Pi, math.Pi},
		{"minus pi wraps to pi", -math.Pi, math.Pi},
		{"just above pi", math.Pi + 0.1, -math.Pi + 0.1},
		{"just below minus pi", -math.Pi - 0.1, math.Pi - 0.1},
		{"two pi", 2 * math.Pi, 0},
		{"large positive", 7 * math.Pi, math.Pi},
		{"large negative", -7.5 * math.Pi, 0.5 * math.Pi},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := WrapPhase(tt.in)
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("WrapPhase(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestWrapPhaseProperty(t *testing.T) {
	f := func(phi float64) bool {
		if math.IsNaN(phi) || math.IsInf(phi, 0) || math.Abs(phi) > 1e9 {
			return true // out of the domain we care about
		}
		w := WrapPhase(phi)
		if w <= -math.Pi || w > math.Pi {
			return false
		}
		// Wrapped value must be congruent to the input modulo 2π.
		diff := math.Mod(phi-w, 2*math.Pi)
		diff = math.Abs(diff)
		if diff > math.Pi {
			diff = 2*math.Pi - diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseDiffStreamConstantTone(t *testing.T) {
	// x[n] = exp(-jωn) gives p[n] = arg(x[n]·conj(x[n+16])) = +16ω.
	const (
		n   = 200
		lag = 16
	)
	omega := 2 * math.Pi * 0.5e6 / 20e6 // 0.5 MHz at 20 Msps
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(-omega*float64(i)), math.Sin(-omega*float64(i)))
	}
	ph := PhaseDiffStream(x, lag)
	if len(ph) != n-lag {
		t.Fatalf("len = %d, want %d", len(ph), n-lag)
	}
	want := WrapPhase(16 * omega) // = 4π/5
	for i, p := range ph {
		if math.Abs(p-want) > 1e-9 {
			t.Fatalf("ph[%d] = %v, want %v (4π/5 = %v)", i, p, want, 4*math.Pi/5)
		}
	}
	if math.Abs(want-4*math.Pi/5) > 1e-12 {
		t.Errorf("expected stable phase 4π/5, got %v", want)
	}
}

func TestPhaseDiffStreamShort(t *testing.T) {
	if got := PhaseDiffStream(make([]complex128, 10), 16); got != nil {
		t.Errorf("expected nil for short input, got %v", got)
	}
}

func TestCompensatePhases(t *testing.T) {
	phases := []float64{0, math.Pi - 0.1, -math.Pi + 0.1}
	CompensatePhases(phases, 0.2)
	want := []float64{0.2, -math.Pi + 0.1, -math.Pi + 0.3}
	for i := range phases {
		if math.Abs(phases[i]-want[i]) > 1e-12 {
			t.Errorf("phases[%d] = %v, want %v", i, phases[i], want[i])
		}
	}
}

func TestQuantizePhase(t *testing.T) {
	step := math.Pi / 10
	snapped, m := QuantizePhase(4*math.Pi/5+0.01, step)
	if m != 8 {
		t.Errorf("multiple = %d, want 8", m)
	}
	if math.Abs(snapped-4*math.Pi/5) > 1e-12 {
		t.Errorf("snapped = %v, want 4π/5", snapped)
	}
}

func TestLongestStableRun(t *testing.T) {
	phases := []float64{0, 0, 1.0, 1.01, 1.02, 0.99, 1.0, 2.5, 2.5}
	start, length := LongestStableRun(phases, 0.05)
	if start != 2 || length != 5 {
		t.Errorf("run = (%d,%d), want (2,5)", start, length)
	}
}

func TestLongestStableRunWrapAround(t *testing.T) {
	// Values near ±π are angularly close even though numerically far.
	phases := []float64{math.Pi - 0.01, -math.Pi + 0.01, math.Pi - 0.02, 0}
	_, length := LongestStableRun(phases, 0.1)
	if length != 3 {
		t.Errorf("length = %d, want 3 (wrap-aware)", length)
	}
}

func TestSignCounts(t *testing.T) {
	neg, nonneg := SignCounts([]float64{-1, -0.5, 0, 0.5, 1})
	if neg != 2 || nonneg != 3 {
		t.Errorf("SignCounts = (%d,%d), want (2,3)", neg, nonneg)
	}
}

func TestPhaseDistanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := (rng.Float64() - 0.5) * 20
		b := (rng.Float64() - 0.5) * 20
		d := PhaseDistance(a, b)
		if d < 0 || d > math.Pi+1e-12 {
			t.Fatalf("PhaseDistance(%v,%v) = %v out of [0,π]", a, b, d)
		}
		if math.Abs(d-PhaseDistance(b, a)) > 1e-9 {
			t.Fatalf("PhaseDistance not symmetric at (%v,%v)", a, b)
		}
	}
}

// wrapPhaseReference is WrapPhase before its near range went
// branch-free, kept verbatim as the oracle the production function must
// match bit for bit.
func wrapPhaseReference(phi float64) float64 {
	if phi > -math.Pi && phi <= math.Pi {
		return phi
	}
	if phi >= -4*math.Pi && phi <= 4*math.Pi {
		for phi > math.Pi {
			phi -= 2 * math.Pi
		}
		for phi <= -math.Pi {
			phi += 2 * math.Pi
		}
		return phi
	}
	phi = math.Mod(phi, 2*math.Pi)
	switch {
	case phi > math.Pi:
		phi -= 2 * math.Pi
	case phi <= -math.Pi:
		phi += 2 * math.Pi
	}
	return phi
}

// sameFloat reports whether a and b have identical bits, counting any
// NaN equal to any NaN.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestWrapPhaseMatchesReference pins WrapPhase to wrapPhaseReference
// on the inputs CFO compensation produces (FastAtan2 outputs of noise
// lag products shifted by every compensation the receivers use), on
// uniform values well past ±3π, and on the seams, specials and
// extremes with three ulp neighbours either side.
func TestWrapPhaseMatchesReference(t *testing.T) {
	check := func(phi float64) {
		if got, want := WrapPhase(phi), wrapPhaseReference(phi); !sameFloat(got, want) {
			t.Fatalf("WrapPhase(%v [%#016x]) = %v [%#016x], reference %v [%#016x]",
				phi, math.Float64bits(phi), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(23))
	offsets := []float64{0, 4 * math.Pi / 5, -4 * math.Pi / 5, math.Pi, -math.Pi, 2 * math.Pi}
	for i := 0; i < 5_000_000; i++ {
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		p := a * complex(real(b), -imag(b))
		phi := FastAtan2(imag(p), real(p))
		for _, off := range offsets {
			check(phi + off)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		check((2*rng.Float64() - 1) * 20)
	}
	for _, e := range []float64{
		0, math.Pi / 5, 4 * math.Pi / 5, math.Pi, 2 * math.Pi, 3 * math.Pi, 4 * math.Pi,
		math.Inf(1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		for _, v := range []float64{e, -e} {
			check(v)
			lo, hi := v, v
			for k := 0; k < 3; k++ {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				check(lo)
				check(hi)
			}
		}
	}
}

// BenchmarkWrapPhase times the CFO compensation step: WrapPhase of
// FastAtan2 noise phases shifted by the canonical +4π/5, of which about
// 40% cross π.
func BenchmarkWrapPhase(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	phases := PhaseDiffStream(randomIQ(1<<16+16, rng), 16)
	out := make([]float64, len(phases))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, phi := range phases {
			out[j] = WrapPhase(phi + 4*math.Pi/5)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(phases)), "ns/sample")
}
