package dsp

import "fmt"

// MovingSignCounter maintains, over a sliding window of fixed size, the
// number of negative values in the window. The SymBee decoder slides an
// 84-value window over the phase stream and checks whether at least
// window-τ values share a sign (§IV-C); this counter makes that an O(1)
// per-sample operation.
type MovingSignCounter struct {
	ring []float64
	pos  int
	fill int
	neg  int
}

// NewMovingSignCounter returns a counter with the given window size.
func NewMovingSignCounter(window int) (*MovingSignCounter, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: NewMovingSignCounter window %d must be positive", window)
	}
	return &MovingSignCounter{ring: make([]float64, window)}, nil
}

// Push adds v to the window, evicting the oldest value when full.
// It reports whether the window is full, along with the current counts
// of negative and nonnegative values in the window.
func (c *MovingSignCounter) Push(v float64) (full bool, neg, nonneg int) {
	if c.fill == len(c.ring) {
		if c.ring[c.pos] < 0 {
			c.neg--
		}
	} else {
		c.fill++
	}
	c.ring[c.pos] = v
	if v < 0 {
		c.neg++
	}
	c.pos++
	if c.pos == len(c.ring) {
		c.pos = 0
	}
	return c.fill == len(c.ring), c.neg, c.fill - c.neg
}

// Reset empties the window.
func (c *MovingSignCounter) Reset() {
	c.pos, c.fill, c.neg = 0, 0, 0
}
