package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownTone(t *testing.T) {
	// A pure tone at bin 3 of a 16-point FFT.
	const n = 16
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 3 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	FFT(x)
	for k := range x {
		mag := cmplx.Abs(x[k])
		if k == 3 {
			if math.Abs(mag-n) > 1e-9 {
				t.Errorf("bin 3 magnitude = %v, want %v", mag, float64(n))
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want 0", k, mag)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 8, 64, 256, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip mismatch at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	timeEnergy := Energy(x)
	X := make([]complex128, n)
	copy(X, x)
	FFT(X)
	freqEnergy := Energy(X) / n
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: time %v, freq %v", timeEnergy, freqEnergy)
	}
}

func TestFFTNonPow2ZeroPads(t *testing.T) {
	// Non-power-of-two input transforms a zero-padded copy, leaving the
	// original untouched.
	x := make([]complex128, 12)
	for i := range x {
		x[i] = complex(float64(i+1), 0)
	}
	orig := append([]complex128{}, x...)
	X := FFT(x)
	if len(X) != 16 {
		t.Fatalf("padded length = %d, want 16", len(X))
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT of non-power-of-two length mutated its input")
		}
	}
	// DC bin equals the plain sum of the (padded) sequence.
	var sum complex128
	for _, v := range orig {
		sum += v
	}
	if cmplx.Abs(X[0]-sum) > 1e-9 {
		t.Errorf("DC bin = %v, want %v", X[0], sum)
	}
}

func TestNextPow2(t *testing.T) {
	tests := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	}
	for _, tt := range tests {
		if got := NextPow2(tt.in); got != tt.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}
