package dsp

import "math"

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// ApproxEqual reports whether a and b agree within the absolute
// tolerance tol. It is the comparison DSP code should use in place of
// exact == / != between computed floats (the floatcmp rule): NaN is
// never approximately equal to anything, and infinities only match
// themselves.
func ApproxEqual(a, b, tol float64) bool {
	if a == b { //symbee:ignore floatcmp -- the fast path for exact hits, incl. matching infinities
		return true
	}
	return math.Abs(a-b) <= tol
}
