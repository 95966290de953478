package dsp

import (
	"fmt"
	"math"
)

// Energy returns the total energy of x: sum of |x[i]|^2.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// Power returns the mean power of x: Energy(x)/len(x).
// It returns 0 for an empty slice.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Scale multiplies every element of x by the real factor a, in place,
// and returns x for chaining.
func Scale(x []complex128, a float64) []complex128 {
	c := complex(a, 0)
	for i := range x {
		x[i] *= c
	}
	return x
}

// MixInto adds src into dst starting at offset, clipping src to the part
// that fits. It returns the number of samples mixed.
func MixInto(dst, src []complex128, offset int) int {
	if offset < 0 {
		src = src[-offset:]
		offset = 0
	}
	if offset >= len(dst) {
		return 0
	}
	n := min(len(src), len(dst)-offset)
	for i := 0; i < n; i++ {
		dst[offset+i] += src[i]
	}
	return n
}

// NormalizePower scales x in place so that its mean power equals p.
// A zero-power input is returned unchanged.
func NormalizePower(x []complex128, p float64) []complex128 {
	cur := Power(x)
	if cur <= 0 {
		return x
	}
	return Scale(x, math.Sqrt(p/cur))
}

// RotateFrequency multiplies x in place by exp(j*2π*freq*n/sampleRate),
// shifting its spectrum up by freq Hz. startSample offsets the rotator
// phase, allowing a long signal to be rotated in chunks.
func RotateFrequency(x []complex128, freq, sampleRate float64, startSample int) []complex128 {
	if freq == 0 {
		return x
	}
	step := 2 * math.Pi * freq / sampleRate
	// Use an incremental rotator: precise enough for the signal lengths
	// used here (<1e7 samples) and ~6x faster than calling math.Sin per
	// sample; re-seed the rotator periodically to bound drift.
	const reseed = 4096
	for base := 0; base < len(x); base += reseed {
		phi := step * float64(startSample+base)
		rot := complex(math.Cos(phi), math.Sin(phi))
		inc := complex(math.Cos(step), math.Sin(step))
		end := min(base+reseed, len(x))
		for i := base; i < end; i++ {
			x[i] *= rot
			rot *= inc
		}
	}
	return x
}

// DelaySum returns y[n] = sum over taps of gain_k * x[n-delay_k], the
// output of a sparse tapped-delay-line filter. Samples outside x are
// treated as zero (negative delays read ahead, so the tap simply starts
// later in x). The output has the same length as x. Mismatched
// delay/gain tap lists are an error.
func DelaySum(x []complex128, delays []int, gains []complex128) ([]complex128, error) {
	if len(delays) != len(gains) {
		return nil, fmt.Errorf("dsp: DelaySum tap mismatch: %d delays, %d gains", len(delays), len(gains))
	}
	y := make([]complex128, len(x))
	for k, d := range delays {
		g := gains[k]
		for n := max(d, 0); n < len(x); n++ {
			src := n - d
			if src >= len(x) {
				break
			}
			y[n] += g * x[src]
		}
	}
	return y, nil
}
