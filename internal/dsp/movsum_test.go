package dsp

import (
	"math/rand"
	"testing"
)

func TestMovingSignCounter(t *testing.T) {
	c, err := NewMovingSignCounter(3)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		v          float64
		full       bool
		neg, nonny int
	}
	steps := []step{
		{-1, false, 1, 0},
		{2, false, 1, 1},
		{-3, true, 2, 1},
		{-4, true, 2, 1}, // evicts -1, adds -4
		{5, true, 1, 2},  // evicts 2... window now [-3,-4,5] -> wait
	}
	// Recompute expected by brute force instead of hand-tracking.
	vals := []float64{}
	for i, s := range steps {
		full, neg, nonneg := c.Push(s.v)
		vals = append(vals, s.v)
		win := vals
		if len(win) > 3 {
			win = win[len(win)-3:]
		}
		wantNeg, wantNonneg := SignCounts(win)
		if full != (len(vals) >= 3) || neg != wantNeg || nonneg != wantNonneg {
			t.Errorf("step %d: got (%v,%d,%d), want (%v,%d,%d)",
				i, full, neg, nonneg, len(vals) >= 3, wantNeg, wantNonneg)
		}
	}
}

func TestMovingSignCounterRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const window = 84
	c, err := NewMovingSignCounter(window)
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	for i := 0; i < 2000; i++ {
		v := rng.NormFloat64()
		vals = append(vals, v)
		full, neg, nonneg := c.Push(v)
		win := vals
		if len(win) > window {
			win = win[len(win)-window:]
		}
		wantNeg, wantNonneg := SignCounts(win)
		if full != (len(vals) >= window) || neg != wantNeg || nonneg != wantNonneg {
			t.Fatalf("i=%d mismatch: got (%v,%d,%d) want (%v,%d,%d)",
				i, full, neg, nonneg, len(vals) >= window, wantNeg, wantNonneg)
		}
	}
	c.Reset()
	if full, _, _ := c.Push(1); full {
		t.Error("full after Reset")
	}
}
