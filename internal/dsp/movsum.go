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

// Reanchor recounts the negatives from the ring contents. The count is
// integer-exact either way; the method exists so the scalar preamble
// scan re-anchors its whole windowed state (counter and average
// together) at the deterministic stream positions the batched kernel
// re-derives its state at — see the kernel notes in
// internal/core/huntbatch.go.
func (c *MovingSignCounter) Reanchor() {
	neg := 0
	for _, v := range c.ring[:c.fill] {
		if v < 0 {
			neg++
		}
	}
	c.neg = neg
}

// MovingAverage maintains a sliding-window mean over a float stream:
// the preamble scanner's running fold-sum average (internal/core).
type MovingAverage struct {
	ring []float64
	pos  int
	fill int
	sum  float64
}

// NewMovingAverage returns a moving average with the given window size.
func NewMovingAverage(window int) (*MovingAverage, error) {
	if window <= 0 {
		return nil, fmt.Errorf("dsp: NewMovingAverage window %d must be positive", window)
	}
	return &MovingAverage{ring: make([]float64, window)}, nil
}

// Push adds v and returns the mean over the (possibly partially filled)
// window.
func (a *MovingAverage) Push(v float64) float64 {
	if a.fill == len(a.ring) {
		a.sum -= a.ring[a.pos]
	} else {
		a.fill++
	}
	a.ring[a.pos] = v
	a.sum += v
	a.pos++
	if a.pos == len(a.ring) {
		a.pos = 0
	}
	return a.sum / float64(a.fill)
}

// Reanchor recomputes the running sum from the ring contents, summing
// oldest to newest. The incremental sum drifts from the true window sum
// by at most one rounding per push since the last re-anchor; calling
// Reanchor at deterministic stream positions caps that drift and, more
// importantly, makes the sum at those positions a pure function of the
// window contents — the property that lets the batched hunt kernel skip
// whole idle segments and still agree with the scalar path to the last
// bit (internal/core/huntbatch.go).
func (a *MovingAverage) Reanchor() {
	var s float64
	if a.fill == len(a.ring) {
		// Full ring: oldest at pos, chronological order wraps once.
		for _, v := range a.ring[a.pos:] {
			s += v
		}
		for _, v := range a.ring[:a.pos] {
			s += v
		}
	} else {
		for _, v := range a.ring[:a.fill] {
			s += v
		}
	}
	a.sum = s
}

// Reset empties the window so the average can be reused without
// reallocating its ring.
func (a *MovingAverage) Reset() {
	a.pos, a.fill, a.sum = 0, 0, 0
}
