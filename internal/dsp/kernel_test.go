package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// angErr is the wrapped absolute difference between two angles, so a
// fast result of +π compares equal to an exact result of −π (both name
// the same seam point).
func angErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// TestFastAtan2ErrorBound sweeps the full circle — dense uniform angles
// across 20 decades of magnitude plus adversarial near-axis and
// near-diagonal points — and asserts the documented bound.
func TestFastAtan2ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	maxErr := 0.0
	check := func(y, x float64) {
		got := FastAtan2(y, x)
		want := math.Atan2(y, x)
		if e := angErr(got, want); e > maxErr {
			maxErr = e
			if e > FastAtan2MaxErr {
				t.Fatalf("FastAtan2(%g, %g) = %v, want %v (err %.3e > bound %.0e)",
					y, x, got, want, e, FastAtan2MaxErr)
			}
		}
	}
	// Dense angular sweep at random magnitudes.
	const n = 2_000_000
	for i := 0; i < n; i++ {
		th := (float64(i)/n)*2*math.Pi - math.Pi
		r := math.Exp(rng.Float64()*46 - 23) // |v| from ~1e-10 to ~1e10
		check(r*math.Sin(th), r*math.Cos(th))
	}
	// Near the octant seams, where the fold switches formulas.
	for i := 0; i < 100_000; i++ {
		eps := math.Exp(rng.Float64()*60 - 66)
		s := 1 - 2*float64(rng.Intn(2))
		check(s*(1+eps), 1)
		check(s*(1-eps), 1)
		check(1, s*(1+eps))
		check(s*eps, 1)
		check(1, s*eps)
	}
	t.Logf("max FastAtan2 error over sweep: %.3e rad (bound %.0e)", maxErr, FastAtan2MaxErr)
	if maxErr > FastAtan2MaxErr {
		t.Errorf("max error %.3e exceeds documented bound %.0e", maxErr, FastAtan2MaxErr)
	}
}

// TestFastAtan2SignAgreement: the decoder's whole decision structure is
// sign-based, so FastAtan2 must agree with math.Atan2 on strict
// negativity for every input, not merely within the error bound.
func TestFastAtan2SignAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1_000_000; i++ {
		y := rng.NormFloat64()
		x := rng.NormFloat64()
		if i%17 == 0 {
			y = 0
		}
		if i%23 == 0 {
			x = 0
		}
		if (FastAtan2(y, x) < 0) != (math.Atan2(y, x) < 0) {
			t.Fatalf("sign mismatch at (%g, %g): fast %v exact %v",
				y, x, FastAtan2(y, x), math.Atan2(y, x))
		}
	}
}

// TestFastAtan2Specials pins the axis and corner conventions to the
// stdlib, signed zeros included.
func TestFastAtan2Specials(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}
	for _, y := range vals {
		for _, x := range vals {
			got, want := FastAtan2(y, x), math.Atan2(y, x)
			switch {
			case math.IsNaN(want):
				if !math.IsNaN(got) {
					t.Errorf("FastAtan2(%g, %g) = %v, want NaN", y, x, got)
				}
			case want == 0:
				// Exact zero of the right sign.
				if got != 0 || math.Signbit(got) != math.Signbit(want) {
					t.Errorf("FastAtan2(%g, %g) = %v (signbit %v), want %v (signbit %v)",
						y, x, got, math.Signbit(got), want, math.Signbit(want))
				}
			default:
				if angErr(got, want) > FastAtan2MaxErr {
					t.Errorf("FastAtan2(%g, %g) = %v, want %v", y, x, got, want)
				}
				if math.Signbit(got) != math.Signbit(want) {
					t.Errorf("FastAtan2(%g, %g) signbit %v, want %v", y, x, math.Signbit(got), math.Signbit(want))
				}
			}
		}
	}
}

// TestFastAtan2Seam is the ±π seam contract shared with WrapPhase: at
// and around the negative real axis — including denormal and −0
// imaginary parts — FastAtan2 must return exactly ±π where Atan2 does,
// never exceed π in magnitude, and WrapPhase of a compensated fast
// phase must stay inside (−π, π].
func TestFastAtan2Seam(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if got := FastAtan2(0, -1); got != math.Pi {
		t.Errorf("FastAtan2(0, -1) = %v, want exactly π", got)
	}
	if got := FastAtan2(negZero, -1); got != -math.Pi {
		t.Errorf("FastAtan2(-0, -1) = %v, want exactly -π", got)
	}
	seamYs := []float64{
		5e-324, -5e-324, // smallest denormals
		1e-320, -1e-320,
		1e-300, -1e-300,
		1e-16, -1e-16,
		0, negZero,
	}
	seamXs := []float64{-1, -0.5, -2, -1e300, -1e-300}
	for _, y := range seamYs {
		for _, x := range seamXs {
			got, want := FastAtan2(y, x), math.Atan2(y, x)
			if math.Abs(got) > math.Pi {
				t.Errorf("FastAtan2(%g, %g) = %v exceeds π in magnitude", y, x, got)
			}
			if angErr(got, want) > FastAtan2MaxErr {
				t.Errorf("FastAtan2(%g, %g) = %v, want %v", y, x, got, want)
			}
			if (got < 0) != (want < 0) {
				t.Errorf("FastAtan2(%g, %g) = %v: sign disagrees with Atan2 = %v", y, x, got, want)
			}
			// The downstream contract: compensating and wrapping a fast
			// phase lands in WrapPhase's half-open interval.
			for _, comp := range []float64{0, 4 * math.Pi / 5, -4 * math.Pi / 5} {
				w := WrapPhase(got + comp)
				if !(w > -math.Pi && w <= math.Pi) {
					t.Errorf("WrapPhase(FastAtan2(%g, %g) + %g) = %v outside (-π, π]", y, x, comp, w)
				}
			}
		}
	}
	// WrapPhase's own seam: inputs a hair inside and outside ±π must
	// stay in (−π, π], including denormal-sized excursions.
	ulp := math.Nextafter(math.Pi, math.Inf(1)) - math.Pi
	for _, phi := range []float64{
		math.Pi, -math.Pi, math.Pi + ulp, -math.Pi - ulp,
		math.Pi - ulp, -math.Pi + ulp, math.Pi + 1e-300, -math.Pi - 1e-300,
	} {
		w := WrapPhase(phi)
		if !(w > -math.Pi && w <= math.Pi) {
			t.Errorf("WrapPhase(%v) = %v outside (-π, π]", phi, w)
		}
		if angErr(w, math.Atan2(math.Sin(phi), math.Cos(phi))) > 1e-9 {
			t.Errorf("WrapPhase(%v) = %v does not name the same angle", phi, w)
		}
	}
}

// TestPhaseStreamFastKernel verifies both stream kernels run FastAtan2:
// batch and incremental paths agree bit for bit, and every phase is
// within the kernel's bound of math.Atan2.
func TestPhaseStreamFastKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := make([]complex128, 300)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	const lag = 16
	batch := PhaseDiffStream(x, lag)
	s, err := NewPhaseDiffStreamer(lag)
	if err != nil {
		t.Fatal(err)
	}
	inc := s.Process(x, nil)
	if len(batch) != len(inc) {
		t.Fatalf("batch %d phases, streamer %d", len(batch), len(inc))
	}
	for i := range batch {
		if batch[i] != inc[i] {
			t.Fatalf("phase %d: batch %v streamer %v", i, batch[i], inc[i])
		}
		p := x[i] * complex(real(x[i+lag]), -imag(x[i+lag]))
		want := math.Atan2(imag(p), real(p))
		if angErr(batch[i], want) > FastAtan2MaxErr {
			t.Fatalf("phase %d = %v, off Atan2 = %v by more than the bound", i, batch[i], want)
		}
	}
}

func BenchmarkFastAtan2(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ys := make([]float64, 1<<14)
	xs := make([]float64, 1<<14)
	out := make([]float64, 1<<14)
	for i := range ys {
		ys[i], xs[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ys {
			out[j] = FastAtan2(ys[j], xs[j])
		}
	}
	b.ReportMetric(float64(len(ys)*b.N)/b.Elapsed().Seconds()/1e6, "Msps")
}

func BenchmarkExactAtan2(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ys := make([]float64, 1<<14)
	xs := make([]float64, 1<<14)
	out := make([]float64, 1<<14)
	for i := range ys {
		ys[i], xs[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ys {
			out[j] = math.Atan2(ys[j], xs[j])
		}
	}
	b.ReportMetric(float64(len(ys)*b.N)/b.Elapsed().Seconds()/1e6, "Msps")
}
