package core

// This file is the batched preamble-scan kernel: the one scan every
// path runs, in every scanner state — the fold warm-up after a reset,
// the cold hunt the receiver sits in ~99% of the time on an idle
// channel, and the refinement span after a lock.
//
// A per-sample scan pays three ring data structures (folder, windowed
// mean, sign counter) per phase. The kernel removes all of them: fold
// sums are gathered directly from the retained phase history with a
// 4-tap strided read, and the windowed mean/sign state is carried in
// three scalars (msum, neg, plus one chronological ring of fold sums).
// It evaluates the exact detection statistic at every fold anchor, for
// any float64 input.
//
// The kernel is pinned bit for bit to such a per-sample scan, kept as
// the test-only reference refScanner (scanref_test.go). Bit identity
// is engineered, not hoped for:
//
//   - Both re-anchor the windowed state (recompute the window sum
//     oldest→newest, recount negatives) at the same deterministic
//     absolute fold anchors: every multiple of huntSegment once the
//     window is full, locked or not. At those points the state is a
//     pure function of the phase window, which bounds float drift in
//     the incremental sum and lets a NaN or ±Inf fold sum that has
//     left the window stop poisoning the statistic.
//   - Between re-anchors the kernel replicates the reference's
//     update order exactly: the fold sum adds taps oldest→newest and
//     the window sum subtracts the evicted value before adding the new
//     one.
//   - The warm-up after reset starts from a ring of +0 and a +0 sum.
//     Evicting a +0 leaves every sum unchanged and is never negative,
//     so the first StableLen anchors fill the window exactly as the
//     reference's rings fill from empty; the statistic is tested from
//     the first anchor whose window is full.
//
// The equivalence is pinned by TestHuntScalarBatchEquivalence,
// TestHuntGateNaNPhases, TestCapturePreambleMatchesScalarScan,
// FuzzHuntBatch and the golden trace fixtures.

// huntSegment is the re-anchor period in fold anchors. Must be a power
// of two (anchors are tested with a mask). 512 keeps re-anchor cost
// ≈0.3 adds/sample.
const huntSegment = 512

// The kernel's fold taps are unrolled for four preamble bits: this
// line stops the build for any other PreambleBits.
var _ = [1]struct{}{}[PreambleBits-4]

// huntChunk consumes the buffered phase stream [s.i, n) from win,
// exactly as feeding the reference one phase at a time would, and
// reports whether the scan is complete. The scan position s.i is left
// where the reference would leave it: just past the completing phase,
// or at n.
//
//symbee:hotpath
func (s *preambleScanner) huntChunk(win phaseWindow, n int) bool {
	if s.done {
		return true
	}
	aEnd := n - s.foldSpan + 1 // one past the last processable anchor
	a := s.i - s.foldSpan + 1
	if a < s.start {
		a = s.start // fold warm-up: no anchor exists before start
	}
	for a < aEnd {
		e := a - (a & (huntSegment - 1)) + huntSegment
		if a&(huntSegment-1) == 0 && a-s.start >= s.d.p.StableLen {
			// Segment boundary: the reference re-anchors here too.
			s.rederive(win, a)
		}
		// Evaluate up to the next boundary from the state in hand: just
		// re-derived, the warm-up from reset, or the state carried from
		// the previous chunk, which continues exactly.
		if s.runSpan(win, a, min(e, aEnd)) {
			return true
		}
		a = e
	}
	s.setScanPos(aEnd)
	return false
}

// setScanPos positions the scanner so the next consumed phase completes
// fold anchor a: the phase at stream index i completes anchor
// i-foldSpan+1.
func (s *preambleScanner) setScanPos(a int) {
	s.i = a + s.foldSpan - 1
}

// rederive rebuilds the kernel's windowed state fresh at segment-start
// anchor a: the chronological ring of fold sums for anchors
// [a-StableLen, a), their oldest→newest sum, and the negative count —
// exactly the state the reference holds after re-anchoring at the same
// anchor.
func (s *preambleScanner) rederive(win phaseWindow, a int) {
	p := s.d.p.BitPeriod
	stable := s.d.p.StableLen
	data := win.data
	j := a - stable - win.base
	var msum float64
	neg := 0
	for k := 0; k < stable; k++ {
		f := data[j] + data[j+p] + data[j+2*p] + data[j+3*p]
		s.foldRing[k] = f
		msum += f
		if f < 0 {
			neg++
		}
		j++
	}
	s.foldPos = 0
	s.msum = msum
	s.neg = neg
}

// runSpan evaluates the exact detection statistic at every fold anchor
// in [a, e) using the carried kernel state, replicating the reference's
// update order bit for bit, and counts down the refinement span once
// the scanner is locked. It returns true when the span is exhausted
// (the scan is complete, s.i just past the completing anchor's last
// phase); otherwise it leaves the carried state continuing at anchor e.
//
//symbee:hotpath
func (s *preambleScanner) runSpan(win phaseWindow, a, e int) bool {
	d := s.d
	p := d.p.BitPeriod
	stable := d.p.StableLen
	thr := d.CaptureThreshold
	tau := d.p.TauSync
	// Sum-domain screen: mean ≥ thr requires msum ≥ thr·stable up to the
	// division rounding; the 1e-6 slack keeps the screen conservative so
	// the exact mean test below still decides every borderline case.
	thrSumLo := thr*float64(stable) - 1e-6
	invStable := float64(stable)
	// The first anchor whose window is full, where the statistic is
	// first tested.
	full := s.start + stable - 1
	data := win.data
	ring := s.foldRing
	j := a - win.base
	msum, neg, pos, rem := s.msum, s.neg, s.foldPos, s.remaining
	for ; a < e; a++ {
		f := data[j] + data[j+p] + data[j+2*p] + data[j+3*p]
		old := ring[pos]
		ring[pos] = f
		pos++
		if pos == stable {
			pos = 0
		}
		// Evict, then add: the reference's order.
		msum -= old
		msum += f
		if old < 0 {
			neg--
		}
		if f < 0 {
			neg++
		}
		j++
		if stable-neg >= tau && msum >= thrSumLo && a >= full {
			if mean := msum / invStable; mean >= thr && s.consider(a-stable+1, mean) {
				rem = s.remaining // first crossing: the scanner locked
			}
		}
		// Locked (so the window is full): the refinement countdown
		// ticks once per anchor, the locking one included.
		if rem >= 0 {
			rem--
			if rem <= 0 {
				s.msum, s.neg, s.foldPos, s.remaining = msum, neg, pos, rem
				s.done = true
				s.i = a + s.foldSpan // just past the completing phase
				return true
			}
		}
	}
	s.msum, s.neg, s.foldPos, s.remaining = msum, neg, pos, rem
	s.setScanPos(e)
	return false
}
