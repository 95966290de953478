package core

import (
	"fmt"

	"symbee/internal/dsp"
)

// phaseWindow is a view of one contiguous span of the phase stream,
// addressed by absolute stream index: data[0] holds the phase at stream
// index base. CapturePreamble and the slice-based decoders use a window
// with base 0 over the whole capture; the FrameMachine uses a bounded
// retained window whose base advances as old phases are discarded, and
// hands selection a view of it from a fixed floor. Every read is bounds
// checked against the window, so code written against phaseWindow
// behaves identically on both, provided the window covers the accessed
// span.
type phaseWindow struct {
	data []float64
	base int
}

// end returns one past the last stream index the window covers.
func (w phaseWindow) end() int { return w.base + len(w.data) }

// contains reports whether stream indices [from, to) are in the window.
func (w phaseWindow) contains(from, to int) bool {
	return from >= w.base && to <= w.end()
}

// foldCandidate is one local maximum of the preamble detection
// statistic: a potential anchor with the fold-window mean that scored it.
type foldCandidate struct {
	anchor int
	mean   float64
}

// preambleScanner is the incremental half of preamble capture (§V): it
// consumes the phase stream in order, carrying the windowed fold state
// across calls, and collects candidate anchors. It carries all state
// between calls, so a stream split at any chunk boundary scans
// identically to a single batch pass — this is what lets
// internal/stream decode unbounded captures with bounded memory.
//
// The scan semantics are exactly those of the former Decoder
// capturePreamble loop: candidates are local maxima of the fold-mean
// statistic, collected for a bounded refinement span after the first
// threshold crossing; the scan completes when that span is exhausted
// (the batch loop's break). finish then runs candidate selection.
//
// The scan itself is the batched kernel, huntChunk (huntbatch.go), in
// every scanner state. The per-sample reference it is pinned to lives
// in the package tests (scanref_test.go).
type preambleScanner struct {
	d        *Decoder
	foldSpan int
	// i is the absolute stream index of the next phase to consume.
	i int
	// start is the stream index the scanner was (re)set at: fold anchors
	// exist from start onward, and the fold warm-up fills the window
	// from there (huntbatch.go).
	start     int
	cands     []foldCandidate
	bestMean  float64
	bestIdx   int
	remaining int // ≥0 once in the refinement phase
	// lockAnchor is the candidate anchor at the moment of the first
	// threshold crossing (the lock event's reported anchor).
	lockAnchor int
	done       bool
	// scores is finish's per-shortlist scratch, retained so a scanner
	// that is reset per frame keeps the streaming decode allocation-free.
	scores []float64
	// Kernel state (huntbatch.go). foldRing holds the last StableLen
	// fold sums chronologically from foldPos (the oldest); msum and neg
	// are their incremental window sum and negative count. reset zeroes
	// all four, so the warm-up fills the window from +0 exactly as a
	// per-sample scan fills its rings from empty.
	foldRing []float64
	foldPos  int
	msum     float64
	neg      int
}

// newPreambleScanner returns a scanner whose next consumed phase has
// stream index 0; rearming resets it to any later start.
func (d *Decoder) newPreambleScanner() *preambleScanner {
	s := &preambleScanner{
		d:        d,
		foldSpan: d.p.BitPeriod * PreambleBits,
		// The kernel's window of the last StableLen fold sums, allocated
		// here, at setup, so the sustained scan never has to.
		foldRing: make([]float64, d.p.StableLen),
	}
	s.reset(0)
	return s
}

// reset rewinds the scanner to a cold hunting state whose next consumed
// phase has absolute stream index start, reusing the fold ring and the
// candidate storage. The streaming FrameMachine resets one scanner per
// rearm instead of allocating a fresh one per frame.
func (s *preambleScanner) reset(start int) {
	s.i = start
	s.start = start
	s.cands = s.cands[:0]
	s.bestMean = 0
	s.bestIdx = -1
	s.remaining = -1
	s.lockAnchor = 0
	s.done = false
	clear(s.foldRing)
	s.foldPos, s.msum, s.neg = 0, 0, 0
}

// locked reports whether the detection statistic has crossed the capture
// threshold at least once (the stream holds a preamble-like pattern).
func (s *preambleScanner) locked() bool { return s.remaining >= 0 }

// consider records a threshold-crossing anchor, merging it with the
// previous candidate when they fall within half a bit period (the fold
// plateau around one preamble produces a run of crossings — keep the
// strongest). It reports whether this crossing is the first, i.e. the
// scanner just locked and entered its bounded refinement span.
//
//symbee:hotpath
func (s *preambleScanner) consider(anchor int, mean float64) bool {
	if n := len(s.cands); n > 0 && anchor-s.cands[n-1].anchor < s.d.p.BitPeriod/2 {
		if mean > s.cands[n-1].mean {
			s.cands[n-1] = foldCandidate{anchor, mean}
			if s.cands[n-1].mean > s.bestMean {
				s.bestMean, s.bestIdx = mean, n-1
			}
		}
	} else {
		s.cands = append(s.cands, foldCandidate{anchor, mean})
		if mean > s.bestMean {
			s.bestMean, s.bestIdx = mean, len(s.cands)-1
		}
	}
	if s.remaining < 0 {
		s.remaining = 16*s.d.p.BitPeriod + 2*s.d.p.StableLen
		// The lock event reports the anchor as of the moment of the
		// first crossing — later plateau crossings may merge-update
		// cands[0] in place, and chunked and whole-capture feeds must
		// emit the same anchor.
		s.lockAnchor = anchor
		return true
	}
	return false
}

// selectionSpanEnd returns one past the highest stream index candidate
// selection can read: the template refinement looks up to ±16 samples
// around each candidate over PreambleBits periods, and the forward
// template walk advances at most 16 bit periods, each probing one more
// period. Once the stream (or retained window) covers this span, finish
// produces the same anchor it would with the whole capture in hand —
// the coverage gate the streaming machine waits on.
func (s *preambleScanner) selectionSpanEnd() int {
	if len(s.cands) == 0 {
		return s.i
	}
	last := s.cands[len(s.cands)-1].anchor
	return last + 17*s.d.p.BitPeriod + 16
}

// finish runs candidate selection over the scanned stream and returns
// the refined preamble anchor. win holds what the template stage may
// read: for CapturePreamble the whole capture, for the FrameMachine its
// selection window through selectionSpanEnd (or through end of stream
// on a final flush). The selection logic — shortlist, template
// alignment, earliest-strong-candidate rule and the anchor walk — is
// the former tail of Decoder.capturePreamble, verbatim.
//
// finish is the per-frame boundary of the streaming path: its bounded
// allocations (the shortlist scratch on first use) are outside the
// per-sample zero-alloc budget.
//
//symbee:coldpath
func (s *preambleScanner) finish(win phaseWindow) (int, error) {
	if s.bestIdx < 0 {
		return 0, ErrNoPreamble
	}
	cands, bestMean, bestIdx := s.cands, s.bestMean, s.bestIdx
	// Selection. The fold mean alone cannot identify the preamble: a
	// run of zero DATA bits folds slightly STRONGER than the preamble
	// itself (the preamble's leading stable run is clipped by the PHR
	// junction, shrinking the usable window intersection to ≈86%),
	// while the ZigBee header folds at ≈75% and partial window overlaps
	// anywhere in between. So candidates within a generous band of the
	// maximum are re-scored with the codeword TEMPLATE over
	// PreambleBits periods — codeword-anchored candidates (preamble and
	// zero-runs) tie at the full level, the header scores ≤½ — and the
	// EARLIEST template-strong candidate wins: the preamble precedes
	// every data run.
	shortlist := cands[:0]
	for _, c := range cands {
		if c.mean >= 0.75*bestMean {
			shortlist = append(shortlist, c)
		}
	}
	// The fold plateau leaves ±10 samples of anchor jitter, and the
	// template decorrelates within a few samples of misalignment, so
	// each candidate is scored at its best alignment within a small
	// window — which simultaneously refines the anchor.
	d := s.d
	maxS := 0.0
	if cap(s.scores) < len(shortlist) {
		s.scores = make([]float64, len(shortlist))
	}
	scores := s.scores[:len(shortlist)]
	for i := range shortlist {
		sc, refined := d.alignTemplate(win, shortlist[i].anchor)
		scores[i] = sc
		shortlist[i].anchor = refined
		if sc > maxS {
			maxS = sc
		}
	}
	best := cands[bestIdx].anchor
	for i := range shortlist {
		if scores[i] >= 0.85*maxS {
			best = shortlist[i].anchor
			break
		}
	}
	// Template walk: pin the anchor to the first codeword period. A
	// genuine codeword period correlates at the full level while the
	// strongest possible impostor (PHR byte 0x37) reaches 61%, so 75%
	// splits the hypotheses with margin for the anchor jitter of noisy
	// captures. Walk forward off header periods (a selected partial
	// overlap), then back across any contiguous codeword run.
	if maxS > 0 {
		for steps := 0; steps < 16; steps++ {
			sc, selfOK := d.templateScore(win, best, 1)
			if !selfOK || sc >= maxS*0.75 {
				break
			}
			best += d.p.BitPeriod
		}
		for best-d.p.BitPeriod >= 0 {
			sc, prevOK := d.templateScore(win, best-d.p.BitPeriod, 1)
			if !prevOK || sc < maxS*0.75 {
				break
			}
			best -= d.p.BitPeriod
		}
	}
	return best, nil
}

// alignTemplate scores a candidate at its best alignment within ±16
// samples and returns that score along with the refined anchor.
func (d *Decoder) alignTemplate(win phaseWindow, anchor int) (float64, int) {
	bestS, bestA := 0.0, anchor
	for delta := -16; delta <= 16; delta += 2 {
		if s, ok := d.templateScore(win, anchor+delta, PreambleBits); ok && s > bestS {
			bestS, bestA = s, anchor+delta
		}
	}
	return bestS, bestA
}

// templateScore is the matched-filter statistic behind the anchor
// walk-back: the correlation of `periods` consecutive bit periods
// starting at anchor with the ideal bit-0 phase profile, normalized per
// value. anchor points at a stable-run start; the template is aligned
// so its own run start coincides. Reads outside the window (before the
// capture start or the machine's selection floor, or past the phases
// buffered) return ok=false, exactly as the slice-based implementation
// did for out-of-range anchors.
func (d *Decoder) templateScore(win phaseWindow, anchor, periods int) (float64, bool) {
	base := anchor - d.templateRunOffset
	end := base + (periods-1)*d.p.BitPeriod + len(d.template)
	if base < 0 || !win.contains(base, end) {
		return 0, false
	}
	var s float64
	for r := 0; r < periods; r++ {
		seg := win.data[base+r*d.p.BitPeriod-win.base:]
		for w, tv := range d.template {
			s += seg[w] * tv
		}
	}
	return s / float64(periods*len(d.template)), true
}

// decodeSyncBitsWin majority-votes n bits at their known positions
// within the window (see DecodeSyncBits for the slice-based public
// wrapper). buf, when capacious enough, backs the returned bit slice so
// streaming callers can keep the per-frame decode allocation-free; pass
// nil to allocate.
func (d *Decoder) decodeSyncBitsWin(win phaseWindow, anchor, n int, buf []byte) ([]byte, error) {
	// Every returned position is explicitly written below, so reused
	// scratch needs no zeroing.
	var bits []byte
	if cap(buf) >= n {
		bits = buf[:n]
	} else {
		bits = make([]byte, n)
	}
	for k := 0; k < n; k++ {
		start := anchor + (PreambleBits+k)*d.p.BitPeriod
		end := start + d.p.StableLen
		if start < 0 || !win.contains(start, end) {
			return bits[:k], fmt.Errorf("%w: bit %d needs [%d,%d), stream has %d",
				ErrTruncated, k, start, end, win.end())
		}
		_, nonneg := dsp.SignCounts(win.data[start-win.base : end-win.base])
		if nonneg >= d.p.TauSync {
			bits[k] = 0
		} else {
			bits[k] = 1
		}
	}
	return bits, nil
}

// decodeFrameWin reads the frame header at anchor, learns the data
// length, decodes the remaining bits and validates the checksum. buf is
// the optional bit-decode scratch (see decodeSyncBitsWin).
func (d *Decoder) decodeFrameWin(win phaseWindow, anchor int, buf []byte) (*Frame, error) {
	header, err := d.decodeSyncBitsWin(win, anchor, HeaderBits, buf)
	if err != nil {
		return nil, err
	}
	dataLen := 0
	for _, b := range header[8:16] {
		dataLen = dataLen<<1 | int(b)
	}
	if dataLen > MaxDataBytes {
		return nil, fmt.Errorf("%w: header claims %d data bytes", ErrTruncated, dataLen)
	}
	total := HeaderBits + dataLen*8 + CRCBits
	bits, err := d.decodeSyncBitsWin(win, anchor, total, buf)
	if err != nil {
		return nil, err
	}
	return ParseFrameBits(bits)
}

// decodeFrameWinWithRetry attempts decodeFrameWin at anchor and, on
// failure, one bit period to either side — recovering captures that
// locked on a period off. It reports the anchor that actually produced
// the frame so streaming callers can place the frame's end in the
// stream; on failure it returns the error of the unshifted attempt.
//
// Runs once per locked frame, not per sample: the 4-allocs-per-frame
// budget applies here, not the zero-alloc ingest budget.
//
//symbee:coldpath
func (d *Decoder) decodeFrameWinWithRetry(win phaseWindow, anchor int, buf []byte) (*Frame, int, error) {
	frame, err := d.decodeFrameWin(win, anchor, buf)
	if err == nil {
		return frame, anchor, nil
	}
	for _, shift := range []int{-d.p.BitPeriod, d.p.BitPeriod} {
		if frame, retryErr := d.decodeFrameWin(win, anchor+shift, buf); retryErr == nil {
			return frame, anchor + shift, nil
		}
	}
	return nil, anchor, err
}
