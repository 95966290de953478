package dsp

import (
	"math"
	"testing"
)

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-20, -3, 0, 3, 10, 30} {
		if got := 10 * math.Log10(FromDB(db)); math.Abs(got-db) > 1e-9 {
			t.Errorf("10·log10(FromDB(%v)) = %v", db, got)
		}
	}
	if math.Abs(FromDB(3)-1.9952623) > 1e-6 {
		t.Errorf("FromDB(3) = %v", FromDB(3))
	}
}
