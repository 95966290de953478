package dsp

import (
	"math"
	"math/bits"
)

// FFT computes the radix-2 decimation-in-time fast Fourier transform
// of x. The forward transform uses the engineering sign convention
//
//	X[k] = Σ_n x[n]·exp(-j·2πkn/N)
//
// Power-of-two lengths transform in place and return x; any other
// length is zero-padded into a fresh buffer of the next power of two
// (the DFT of the padded sequence), leaving x untouched.
func FFT(x []complex128) []complex128 {
	return fftDir(padPow2(x), false)
}

// IFFT computes the inverse FFT of x, including the 1/N normalization.
// Like FFT it runs in place for power-of-two lengths and zero-pads
// otherwise.
func IFFT(x []complex128) []complex128 {
	x = fftDir(padPow2(x), true)
	scale := 1 / float64(len(x))
	for i := range x {
		x[i] *= complex(scale, 0)
	}
	return x
}

// padPow2 returns x itself when its length is a power of two (or zero),
// else a zero-padded copy of length NextPow2(len(x)).
func padPow2(x []complex128) []complex128 {
	n := len(x)
	if n&(n-1) == 0 {
		return x
	}
	buf := make([]complex128, NextPow2(n))
	copy(buf, x)
	return buf
}

func fftDir(x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n == 0 {
		return x
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
	return x
}

// NextPow2 returns the smallest power of two that is >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
