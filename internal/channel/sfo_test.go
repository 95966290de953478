package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestApplySFOZeroIsIdentity(t *testing.T) {
	x := []complex128{1, 2i, 3}
	if got := ApplySFO(x, 0); &got[0] != &x[0] {
		t.Error("zero ppm should return the input unchanged")
	}
}

func TestApplySFOShiftsGrid(t *testing.T) {
	// A pure tone resampled at ±100 ppm is the same tone at a 100 ppm
	// higher (lower) apparent frequency; check the phase drift midway
	// and the tail.
	const (
		n    = 100000
		freq = 0.5e6
		rate = 20e6
	)
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * freq * float64(i) / rate
		x[i] = cmplx.Exp(complex(0, ang))
	}
	for _, ppm := range []float64{100, -100} {
		y := ApplySFO(x, ppm)
		// At sample n/2, expected phase advance vs original:
		// 2π·freq/rate·(n/2)·ppm·1e-6.
		k := n / 2
		wantShift := 2 * math.Pi * freq / rate * float64(k) * ppm * 1e-6
		gotShift := cmplx.Phase(y[k] * cmplx.Conj(x[k]))
		if math.Abs(gotShift-wantShift) > 0.05 {
			t.Errorf("ppm %v: phase drift at %d = %v, want %v", ppm, k, gotShift, wantShift)
		}
		// An output sample whose source position reaches the last input
		// sample has no right neighbour to interpolate with: it must be
		// exactly zero (+0 in both parts). Every other sample
		// interpolates two unit phasors 0.16 rad apart, so its magnitude
		// stays above 0.99. A slower receiver clock (negative ppm) never
		// runs past the source, so nothing is zero-padded.
		ratio := 1 + ppm*1e-6
		padded := 0
		for i, v := range y {
			if float64(i)*ratio >= n-1 {
				padded++
				if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
					t.Fatalf("ppm %v: sample %d lies past the source but is %v, want +0", ppm, i, v)
				}
				continue
			}
			if a := cmplx.Abs(v); a < 0.99 {
				t.Fatalf("ppm %v: sample %d inside the source has magnitude %v", ppm, i, a)
			}
		}
		if ppm > 0 && padded == 0 {
			t.Errorf("ppm %v: no sample past the source; the tail check is vacuous", ppm)
		}
		if ppm < 0 && padded != 0 {
			t.Errorf("ppm %v: %d samples zero-padded, want none", ppm, padded)
		}
	}
}

// refApplySFO is the original resampler, kept as the bit-exact oracle
// for ApplySFO: it floors the source position with math.Floor.
func refApplySFO(x []complex128, ppm float64) []complex128 {
	if ppm == 0 {
		return x
	}
	ratio := 1 + ppm*1e-6
	out := make([]complex128, len(x))
	for n := range out {
		pos := float64(n) * ratio
		i := int(math.Floor(pos))
		if i+1 >= len(x) {
			break
		}
		frac := pos - float64(i)
		out[n] = x[i]*complex(1-frac, 0) + x[i+1]*complex(frac, 0)
	}
	return out
}

// sameBits reports the first sample where got and want differ in
// their IEEE-754 bit patterns (so +0 and −0 differ), or -1.
func sameBits(got, want []complex128) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// TestApplySFOMatchesReference pins ApplySFO bit for bit to the
// math.Floor oracle over random signals at the crystal-tolerance
// offsets the medium draws and beyond.
func TestApplySFOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ppm := range []float64{-40, -10, 10, 40, 100} {
		for trial := 0; trial < 8; trial++ {
			x := make([]complex128, 1+rng.Intn(60000))
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := refApplySFO(x, ppm)
			if i := sameBits(ApplySFO(x, ppm), want); i >= 0 {
				t.Fatalf("ppm %v, %d samples: sample %d differs from the reference", ppm, len(x), i)
			}
			// A recycled buffer: nothing it held may survive.
			used := make([]complex128, len(x)+rng.Intn(50))
			for i := range used {
				used[i] = complex(math.Copysign(0, -1), math.NaN())
			}
			if i := sameBits(ApplySFOInto(used, x, ppm), want); i >= 0 {
				t.Fatalf("ppm %v, %d samples into a used buffer: sample %d differs from the reference",
					ppm, len(x), i)
			}
		}
	}
}
