package dsp

import "math"

// This file is the phase kernel layer: the per-sample primitives behind
// the idle-listening stream ∠(x[n]·x*[n+lag]) that every receiver path
// computes at the full sample rate (20/40 Msps). The decode logic above
// it only ever consumes signs and coarse thresholds of these phases
// (decision margins are multiples of π/10, see DESIGN.md §8), so the
// kernel trades the last ~8 digits of math.Atan2 for a ~2.5× higher
// sample rate.

// FastAtan2MaxErr is the guaranteed absolute error bound of FastAtan2
// against math.Atan2, in radians. The truncated degree-17 Chebyshev
// expansion of atan on [0,1] is exact to 6.7e-9 (measured by the
// full-circle sweep in kernel_test.go); the constant is rounded up for
// slack. For scale: the smallest decision margin anywhere in the
// decoder is the π/10 ≈ 0.314 rad gap between phase-alphabet points
// (Appendix A), seven orders of magnitude above this bound.
const FastAtan2MaxErr = 1e-8

// Coefficients of the truncated Chebyshev expansion of atan(z),
//
//	atan(z) = 2 Σ_{n≥0} (-1)^n c^(2n+1)/(2n+1) · T_{2n+1}(z), c = √2−1,
//
// cut at degree 17 and recombined into monomial form. The octant fold
// in FastAtan2 only evaluates z ∈ [0,1], where the dropped tail sums to
// under 7e-9.
const (
	at01 = 9.99999871163872123e-01
	at03 = -3.33325240026253244e-01
	at05 = 1.99848846855741391e-01
	at07 = -1.41548060418656946e-01
	at09 = 1.04775391986506400e-01
	at11 = -7.19438454245825143e-02
	at13 = 3.93454131479066133e-02
	at15 = -1.41523480361711619e-02
	at17 = 2.39813901250996928e-03
)

// atanPoly evaluates the degree-17 polynomial for atan(z), z ∈ [0,1].
func atanPoly(z float64) float64 {
	u := z * z
	s := at17
	s = s*u + at15
	s = s*u + at13
	s = s*u + at11
	s = s*u + at09
	s = s*u + at07
	s = s*u + at05
	s = s*u + at03
	s = s*u + at01
	return s * z
}

// Octant reconstruction tables, indexed by (|y|>|x|) | (x<0)<<1: the
// folded first-octant angle is flipped and shifted back to the full
// circle, then copysign restores the half-plane.
var (
	octOff = [4]float64{0, math.Pi / 2, math.Pi, math.Pi / 2}
	octSgn = [4]float64{1, -1, -1, 1}
)

// FastAtan2 approximates math.Atan2(y, x) within FastAtan2MaxErr using
// one division and one polynomial, with no data-dependent branches on
// finite nonzero inputs — the octant is folded arithmetically (min/max
// + sign/offset tables), so throughput does not collapse on the
// unpredictable quadrant pattern of noise samples the way a branchy
// reduction does.
//
// Sign conventions match math.Atan2 exactly, including signed zeros and
// the ±π seam: the result is negative iff Atan2's is, the magnitude
// never exceeds π, and axis inputs (either argument ±0) return the same
// exact values (0, ±0, ±π/2, ±π) as the stdlib. NaN and infinite
// inputs, and the (±0, ±0) corner, are delegated to math.Atan2.
//
//symbee:hotpath
func FastAtan2(y, x float64) float64 {
	ay, ax := math.Abs(y), math.Abs(x)
	mx := max(ay, ax)
	mn := min(ay, ax)
	if !(mx > 0) || math.IsInf(mx, 1) {
		// Both zero, an infinity, or a NaN: off the hot path entirely.
		return math.Atan2(y, x)
	}
	z := mn / mx
	if z == 0 && x < 0 {
		// y is ±0, or |y/x| underflowed to zero. Atan2 resolves this
		// collapsed seam from the quotient's rounded sign (+π for both
		// ±underflow, −π only for a true −0 y); reconstructing from y's
		// sign would disagree, so take the stdlib answer verbatim.
		return math.Atan2(y, x)
	}
	base := atanPoly(z)
	i := 0
	if ay > ax {
		i = 1
	}
	if x < 0 {
		i |= 2
	}
	return math.Copysign(octSgn[i]*base+octOff[i], y)
}
