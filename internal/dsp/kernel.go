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
	z := mn / mx
	if offPath(mx, z, x) {
		return math.Atan2(y, x)
	}
	base := atanPoly(z)
	i := octant(ay, ax, x)
	return math.Copysign(octSgn[i]*base+octOff[i], y)
}

// offPath reports whether FastAtan2 hands its input to math.Atan2,
// given mx = max(|y|, |x|), z = min(|y|, |x|)/mx and x. It does so when
//   - mx is zero, infinite or NaN: both parts zero, an infinity or a NaN;
//   - z == 0 and x < 0: y is ±0, or |y/x| underflowed to zero. Atan2
//     resolves this collapsed seam from the quotient's rounded sign (+π
//     for both ±underflow, −π only for a true −0 y); reconstructing from
//     y's sign would disagree, so the stdlib answer is taken verbatim.
func offPath(mx, z, x float64) bool {
	return !(mx > 0) || math.IsInf(mx, 1) || z == 0 && x < 0
}

// octant returns the octOff/octSgn index of a folded angle: bit 0 is
// set when the fold swapped |y| and |x|, bit 1 when x is negative. Each
// bit is a separate select, so the noise quadrant pattern costs no
// mispredicted branch.
func octant(ay, ax, x float64) int {
	i, j := 0, 0
	if ay > ax {
		i = 1
	}
	if x < 0 {
		j = 1
	}
	return i | j<<1
}

// appendPhaseDiff appends the phase stream ∠(x[n]·x*[n+lag]) for n in
// [0, len(x)-lag) to out and returns the extended slice; the caller
// guarantees 0 < lag < len(x). It is the one block kernel behind
// PhaseDiffStream and PhaseDiffStreamer.Process.
//
// Lag products are taken four at a time, and FastAtan2's finite path is
// written out once per lane with the lanes interleaved, so the four
// divisions and Horner chains overlap instead of running back to back.
// Each lane performs FastAtan2's operations in FastAtan2's order,
// written as the same expressions, so every phase is bit-identical to a
// per-sample FastAtan2 call (a compiler that fuses x*y+z fuses both
// alike). A group in which any lane would leave that path — a zero or
// non-finite max, or the collapsed z == 0, x < 0 seam — is computed
// lane by lane through FastAtan2, as is the tail of fewer than four.
//
//symbee:hotpath
func appendPhaseDiff(out []float64, x []complex128, lag int) []float64 {
	a, b := x[:len(x)-lag], x[lag:]
	n := 0
	for ; n+4 <= len(a); n += 4 {
		p0 := a[n] * complex(real(b[n]), -imag(b[n]))
		p1 := a[n+1] * complex(real(b[n+1]), -imag(b[n+1]))
		p2 := a[n+2] * complex(real(b[n+2]), -imag(b[n+2]))
		p3 := a[n+3] * complex(real(b[n+3]), -imag(b[n+3]))
		y0, x0 := imag(p0), real(p0)
		y1, x1 := imag(p1), real(p1)
		y2, x2 := imag(p2), real(p2)
		y3, x3 := imag(p3), real(p3)
		ay0, ax0 := math.Abs(y0), math.Abs(x0)
		ay1, ax1 := math.Abs(y1), math.Abs(x1)
		ay2, ax2 := math.Abs(y2), math.Abs(x2)
		ay3, ax3 := math.Abs(y3), math.Abs(x3)
		mx0, mx1, mx2, mx3 := max(ay0, ax0), max(ay1, ax1), max(ay2, ax2), max(ay3, ax3)
		mn0, mn1, mn2, mn3 := min(ay0, ax0), min(ay1, ax1), min(ay2, ax2), min(ay3, ax3)
		z0, z1, z2, z3 := mn0/mx0, mn1/mx1, mn2/mx2, mn3/mx3
		if offPath(mx0, z0, x0) || offPath(mx1, z1, x1) || offPath(mx2, z2, x2) || offPath(mx3, z3, x3) {
			out = append(out, FastAtan2(y0, x0), FastAtan2(y1, x1), FastAtan2(y2, x2), FastAtan2(y3, x3))
			continue
		}
		// atanPoly, one step per lane at a time.
		u0, u1, u2, u3 := z0*z0, z1*z1, z2*z2, z3*z3
		s0, s1, s2, s3 := at17, at17, at17, at17
		s0, s1, s2, s3 = s0*u0+at15, s1*u1+at15, s2*u2+at15, s3*u3+at15
		s0, s1, s2, s3 = s0*u0+at13, s1*u1+at13, s2*u2+at13, s3*u3+at13
		s0, s1, s2, s3 = s0*u0+at11, s1*u1+at11, s2*u2+at11, s3*u3+at11
		s0, s1, s2, s3 = s0*u0+at09, s1*u1+at09, s2*u2+at09, s3*u3+at09
		s0, s1, s2, s3 = s0*u0+at07, s1*u1+at07, s2*u2+at07, s3*u3+at07
		s0, s1, s2, s3 = s0*u0+at05, s1*u1+at05, s2*u2+at05, s3*u3+at05
		s0, s1, s2, s3 = s0*u0+at03, s1*u1+at03, s2*u2+at03, s3*u3+at03
		s0, s1, s2, s3 = s0*u0+at01, s1*u1+at01, s2*u2+at01, s3*u3+at01
		base0, base1, base2, base3 := s0*z0, s1*z1, s2*z2, s3*z3
		i0, i1, i2, i3 := octant(ay0, ax0, x0), octant(ay1, ax1, x1), octant(ay2, ax2, x2), octant(ay3, ax3, x3)
		out = append(out,
			math.Copysign(octSgn[i0]*base0+octOff[i0], y0),
			math.Copysign(octSgn[i1]*base1+octOff[i1], y1),
			math.Copysign(octSgn[i2]*base2+octOff[i2], y2),
			math.Copysign(octSgn[i3]*base3+octOff[i3], y3))
	}
	for ; n < len(a); n++ {
		p := a[n] * complex(real(b[n]), -imag(b[n]))
		out = append(out, FastAtan2(imag(p), real(p)))
	}
	return out
}
