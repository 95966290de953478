// Package dsp provides the signal-processing primitives shared by the
// SymBee reproduction: complex-vector arithmetic, an FFT, phase math
// (wrapping, quantization, phase-difference streams), the folding
// technique used for preamble capture, window functions, moving sums,
// and decibel conversion.
//
// Everything in this package operates on []complex128 or []float64 at an
// abstract sample level; radio-specific constants (sample rates, lags,
// window sizes) live in the zigbee, wifi and core packages.
package dsp
