package testutil

//symbee:ignore-file reach -- only _test.go files import testutil, so no production file reaches this one

import "symbee/internal/dsp"

// SpectrumPower returns the power spectrum |FFT(x)|²/N of x zero-padded
// to the next power of two. The channel tests find a carrier offset's
// peak bin with it, and the wifi tests an OFDM frame's bandwidth.
func SpectrumPower(x []complex128) []float64 {
	n := dsp.NextPow2(len(x))
	buf := make([]complex128, n)
	copy(buf, x)
	dsp.FFT(buf)
	out := make([]float64, n)
	inv := 1 / float64(n)
	for i, v := range buf {
		re, im := real(v), imag(v)
		out[i] = (re*re + im*im) * inv
	}
	return out
}
