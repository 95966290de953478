package core

import "symbee/internal/dsp"

// refScanner is the per-sample preamble scan the batched kernel
// (huntbatch.go) is pinned to. It consumes one phase at a time through
// a dsp.SlidingFolder over the last foldSpan phases and one ring of the
// last StableLen fold sums (shared by the windowed mean and the sign
// count), and re-anchors the window sum where the kernel re-derives its
// state. It embeds the production scanner, so consider, finish, locked
// and selectionSpanEnd are the production code.
type refScanner struct {
	*preambleScanner
	folder               *dsp.SlidingFolder
	sums                 []float64
	sumPos, sumFill, neg int
	sum                  float64
}

func newRefScanner(d *Decoder) *refScanner {
	folder, err := dsp.NewSlidingFolder(d.p.BitPeriod, PreambleBits)
	if err != nil {
		panic(err) // unreachable: NewDecoder validated BitPeriod > 0
	}
	return &refScanner{
		preambleScanner: d.newPreambleScanner(),
		folder:          folder,
		sums:            make([]float64, d.p.StableLen),
	}
}

func (r *refScanner) reset(start int) {
	r.preambleScanner.reset(start)
	r.folder.Reset()
	r.sumPos, r.sumFill, r.neg, r.sum = 0, 0, 0, 0
}

// push consumes one phase (compensation already applied) and reports
// whether the scan is complete: the refinement span after the first
// threshold crossing is exhausted.
func (r *refScanner) push(phi float64) bool {
	s := r.preambleScanner
	if s.done {
		return true
	}
	s.i++
	f, ok := r.folder.Push(phi)
	if !ok {
		return false
	}
	// a is the fold anchor this phase completes. The negative count is
	// integer-exact, so re-anchoring recomputes only the sum.
	a := s.i - s.foldSpan
	if a&(huntSegment-1) == 0 && a-s.start >= s.d.p.StableLen {
		r.sum = 0
		for k := range r.sums {
			r.sum += r.sums[(r.sumPos+k)%len(r.sums)]
		}
	}
	// Evict the oldest fold sum, then add the new one.
	if r.sumFill == len(r.sums) {
		old := r.sums[r.sumPos]
		r.sum -= old
		if old < 0 {
			r.neg--
		}
	} else {
		r.sumFill++
	}
	r.sums[r.sumPos] = f
	r.sum += f
	if f < 0 {
		r.neg++
	}
	r.sumPos = (r.sumPos + 1) % len(r.sums)
	if r.sumFill < len(r.sums) {
		return false
	}
	// The window covers fold anchors [a-StableLen+1 .. a].
	mean := r.sum / float64(len(r.sums))
	if mean >= s.d.CaptureThreshold && len(r.sums)-r.neg >= s.d.p.TauSync {
		s.consider(a-s.d.p.StableLen+1, mean)
	}
	if s.remaining >= 0 {
		if s.remaining--; s.remaining <= 0 {
			s.done = true
		}
	}
	return s.done
}

// hunt is the reference for huntChunk: it pushes the buffered phases
// [i, n) one at a time and reports whether the scan is complete.
func (r *refScanner) hunt(win phaseWindow, n int) bool {
	for r.i < n {
		if r.push(win.data[r.i-win.base]) {
			break
		}
	}
	return r.done
}

// scalarCapturePreamble is the reference for CapturePreamble: a fresh
// reference scanner over the whole capture, then selection.
func scalarCapturePreamble(d *Decoder, phases []float64) (int, error) {
	win := phaseWindow{data: d.prepare(phases)}
	sc := newRefScanner(d)
	sc.hunt(win, len(win.data))
	return sc.finish(win)
}

// refMachine is FrameMachine's decision loop over a refScanner, for the
// equivalence tests to replay every stream through both. It embeds a
// machine whose scanner is the reference's embedded one, so the history
// buffer, retention, window, trim and Events are the production code;
// PushChunk, Flush, advance and rearm are copies. It tracks the lock
// event with its own flag, where production compares the lock state
// before and after each hunt, so each checks the other.
type refMachine struct {
	*FrameMachine
	ref         *refScanner
	lockEmitted bool
}

func newRefMachine(d *Decoder) *refMachine {
	m := d.newMachine()
	ref := newRefScanner(d)
	m.scan = ref.preambleScanner
	return &refMachine{FrameMachine: m, ref: ref}
}

func (m *refMachine) PushChunk(phases []float64) error {
	if m.flushed {
		return ErrFlushed
	}
	if comp := m.d.compensation; comp != 0 {
		for _, v := range phases {
			m.buf = append(m.buf, dsp.WrapPhase(v+comp))
		}
	} else {
		m.buf = append(m.buf, phases...)
	}
	m.n += len(phases)
	m.advance()
	return nil
}

func (m *refMachine) Flush() {
	m.flushed = true
	m.advance()
}

func (m *refMachine) advance() {
	for {
		switch m.state {
		case StateHunting:
			done := m.ref.hunt(m.window(), m.n)
			if !m.lockEmitted && m.ref.locked() {
				m.lockEmitted = true
				m.events = append(m.events, StreamEvent{Kind: EventLock, Anchor: m.ref.lockAnchor})
			}
			if !done {
				if m.flushed && m.ref.locked() {
					m.state = StateSelecting
					m.needUpTo = m.n
					continue
				}
				m.trim()
				return
			}
			m.state = StateSelecting
			m.needUpTo = m.ref.selectionSpanEnd()
		case StateSelecting:
			if m.n < m.needUpTo && !m.flushed {
				return
			}
			anchor, err := m.ref.finish(m.selectionWindow())
			if err != nil {
				m.rearm(m.ref.i)
				continue
			}
			m.anchor, m.state = anchor, StateDecoding
			m.needUpTo = anchor + DecodeGateSpan(m.d.p)
		case StateDecoding:
			if m.n < m.needUpTo && !m.flushed {
				return
			}
			frame, used, err := m.d.decodeFrameWinWithRetry(m.window(), m.anchor, m.bitBuf)
			if err != nil {
				m.events = append(m.events, StreamEvent{Kind: EventDecodeError, Anchor: m.anchor, Err: err})
				m.rearm(m.ref.i)
				continue
			}
			total := HeaderBits + len(frame.Data)*8 + CRCBits
			end := used + (PreambleBits+total-1)*m.d.p.BitPeriod + m.d.p.StableLen
			m.events = append(m.events, StreamEvent{Kind: EventFrame, Anchor: used, Frame: frame, End: end})
			m.rearm(end)
		}
	}
}

func (m *refMachine) rearm(from int) {
	m.ref.reset(min(max(from, m.ref.i), m.n))
	m.state = StateHunting
	m.lockEmitted = false
	m.trim()
}
