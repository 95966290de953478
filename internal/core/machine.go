package core

import "symbee/internal/dsp"

// MachineState is the stage a FrameMachine is in.
type MachineState uint8

// FrameMachine stages.
const (
	// StateHunting: scanning the phase stream for a preamble fold.
	StateHunting MachineState = iota
	// StateSelecting: fold lock acquired; waiting for enough lookahead
	// to refine the anchor by template matching.
	StateSelecting
	// StateDecoding: anchor pinned; waiting for the frame body to
	// arrive, then majority-vote decoding it.
	StateDecoding
)

func (s MachineState) String() string {
	switch s {
	case StateHunting:
		return "hunting"
	case StateSelecting:
		return "selecting"
	case StateDecoding:
		return "decoding"
	}
	return "unknown"
}

// StreamEventKind discriminates FrameMachine events.
type StreamEventKind uint8

// FrameMachine event kinds.
const (
	// EventLock: the fold statistic crossed the capture threshold — a
	// preamble-like pattern is in the stream.
	EventLock StreamEventKind = iota + 1
	// EventFrame: a frame decoded and passed its checksum.
	EventFrame
	// EventDecodeError: a locked preamble failed to produce a valid
	// frame (bad version, checksum mismatch, truncated stream).
	EventDecodeError
)

// StreamEvent is one occurrence in a decoded stream.
type StreamEvent struct {
	Kind StreamEventKind
	// Anchor is the absolute stream index of the preamble anchor
	// (for EventLock, the first fold candidate; for EventFrame, the
	// anchor the frame actually decoded at).
	Anchor int
	// Frame is the decoded frame (EventFrame only).
	Frame *Frame
	// Err is the decode failure (EventDecodeError only).
	Err error
	// End is one past the last phase index the frame occupies
	// (EventFrame only) — where hunting for the next frame resumes.
	End int
}

// FrameMachine is the per-stream decoder state machine: hunting →
// preamble-fold lock → synchronized majority-vote decode → frame emit,
// repeated for as long as the stream lasts. It consumes the phase
// stream in arbitrarily sized chunks, carrying all DSP state (fold
// sums, sign counts, windowed means) and a bounded phase history across
// chunk boundaries, so a capture split at any offset decodes to the
// same events as one push of the whole capture, re-arms and decode
// errors included. Batch and streaming decoding are the same machine:
// Decoder.DecodeFrame pushes the capture through it and stops at the
// first terminal event.
//
// Decisions are taken at deterministic stream positions, never at chunk
// boundaries: after a fold lock the machine waits until the retained
// history covers the span candidate selection may read
// (preambleScanner.selectionSpanEnd), and after anchor selection until
// it covers the largest possible frame at that anchor. Flush forces the
// pending decision with whatever has arrived, which is exactly the
// batch behavior at the end of a capture.
//
// A FrameMachine is not safe for concurrent use; internal/stream shards
// streams across workers so each machine stays single-goroutine.
type FrameMachine struct {
	d *Decoder

	// buf holds the retained phase history; buf[0] is stream index base.
	buf  []float64
	base int
	// n is the total number of phases pushed (the next stream index).
	n int

	// scan is the preamble scanner; scan.i is the next stream index it
	// consumes.
	scan *preambleScanner

	state MachineState
	// anchor is the selected preamble anchor (StateDecoding).
	anchor int
	// needUpTo is the coverage gate: the decision for the current state
	// fires once n ≥ needUpTo (or on Flush).
	needUpTo int

	flushed bool
	events  []StreamEvent
	// bitBuf is the frame bit-decode scratch (maxFrameBits once a frame
	// has been attempted); with the scanner reset-in-place and the
	// events buffer recycled by Events, it keeps the machine's sustained
	// push path free of per-sample and per-frame allocations.
	bitBuf []byte
}

// maxFrameBits is the largest on-air frame body in SymBee bits.
const maxFrameBits = HeaderBits + 8*MaxDataBytes + CRCBits

// pushPiece is the most phases (2 MiB) the machine buffers before it
// advances. A re-arm's trim moves every buffered phase past the restart
// point to the front of the history, so one unbounded push of a long
// capture would copy the rest of the capture at every re-arm; pieces
// bound each copy to a piece plus the history trim keeps. A piece holds
// a padded maximal frame at 40 Msps, so DecodeFrame takes a one-frame
// capture in one push. Events do not depend on chunking, so the split
// changes none.
const pushPiece = 1 << 18

// defaultRetention returns how much history hunting keeps behind the
// newest phase: enough for the template stage's backward reads —
// candidate anchors trail the scan position by foldSpan+StableLen, the
// walk-back probes up to 16 periods plus the in-template run offset
// (< one period) behind the earliest candidate, and alignment jitters
// ±16 samples — with a full preamble span of margin. Once a fold
// candidate exists trimming stops, so selection always sees a stable
// window. ≈15.5k floats (124 KiB) per stream at 20 Msps.
func defaultRetention(p Params) int {
	return (PreambleBits+20)*p.BitPeriod + 2*p.StableLen
}

// NewFrameMachine returns a hunting machine with bounded history
// retention. The machine applies the decoder's compensation to every
// pushed phase, mirroring the batch prepare step. The error is always
// nil.
func (d *Decoder) NewFrameMachine() (*FrameMachine, error) {
	return d.newMachine(), nil
}

// newMachine is NewFrameMachine without its always-nil error, for
// DecodeFrame.
func (d *Decoder) newMachine() *FrameMachine {
	return &FrameMachine{
		d:    d,
		scan: d.newPreambleScanner(),
		// The frame bit-decode scratch is allocated here, at setup, so
		// the sustained push path never has to.
		bitBuf: make([]byte, maxFrameBits),
	}
}

// DecodeGateSpan returns, in phase values, the largest span a frame
// decode attempt anchored at stream index 0 may read: the +BitPeriod
// retry-shifted anchor plus a maximal frame body plus one stable
// window. It is the machine's StateDecoding coverage gate; harnesses
// use it to size the zero-phase pad that forces a pending decode.
func DecodeGateSpan(p Params) int {
	return (1+PreambleBits+maxFrameBits)*p.BitPeriod + p.StableLen
}

// State returns the machine's current stage.
func (m *FrameMachine) State() MachineState { return m.state }

// Buffered returns the number of retained history phases (the machine's
// current memory footprint in values).
func (m *FrameMachine) Buffered() int { return len(m.buf) }

// Pushed returns the total number of phases consumed.
func (m *FrameMachine) Pushed() int { return m.n }

// Events drains and returns the events produced since the last call.
// The returned slice is the machine's internal queue and is reused: it
// stays valid only until the next PushChunk or Flush. Callers that
// retain events across pushes must copy them (the element values, not
// the slice header — Frame pointers stay valid indefinitely).
func (m *FrameMachine) Events() []StreamEvent {
	ev := m.events
	m.events = m.events[:0]
	return ev
}

// PushChunk consumes a chunk of phase values (any length, including
// zero) and advances the machine. The chunk is copied; the caller may
// reuse the slice. Pushing into a flushed machine reports ErrFlushed
// (wrapped); Reset first.
//
//symbee:hotpath
func (m *FrameMachine) PushChunk(phases []float64) error {
	if m.flushed {
		return ErrFlushed
	}
	for len(phases) > pushPiece {
		m.push(phases[:pushPiece])
		phases = phases[pushPiece:]
	}
	m.push(phases)
	return nil
}

// push buffers one piece of at most pushPiece phases and advances the
// machine.
func (m *FrameMachine) push(phases []float64) {
	if comp := m.d.compensation; comp != 0 {
		for _, v := range phases {
			m.buf = append(m.buf, dsp.WrapPhase(v+comp))
		}
	} else {
		m.buf = append(m.buf, phases...)
	}
	m.n += len(phases)
	m.advance()
}

// Flush marks the end of the stream: any pending decision is forced
// with the data at hand (a truncated frame body decodes as far as it
// can and reports ErrTruncated, matching the batch path on a capture
// that ends mid-frame). After Flush the machine only accepts Reset.
func (m *FrameMachine) Flush() {
	m.flushed = true
	m.advance()
}

// Reset returns the machine to a fresh hunting state at stream index 0.
func (m *FrameMachine) Reset() {
	m.buf = m.buf[:0]
	m.base, m.n = 0, 0
	m.scan.reset(0)
	m.state = StateHunting
	m.flushed = false
	m.events = m.events[:0]
}

// advance runs the state machine as far as the buffered stream allows.
func (m *FrameMachine) advance() {
	for {
		switch m.state {
		case StateHunting:
			if !m.feedScanner() {
				// On a flush the batch path runs selection with
				// whatever candidates the exhausted stream produced,
				// even if the refinement span never completed.
				if m.flushed && m.scan.locked() {
					m.state = StateSelecting
					m.needUpTo = m.n
					continue
				}
				m.trim()
				return // need more data
			}
			m.state = StateSelecting
			m.needUpTo = m.scan.selectionSpanEnd()
		case StateSelecting:
			if m.n < m.needUpTo && !m.flushed {
				return
			}
			anchor, err := m.scan.finish(m.selectionWindow())
			if err != nil {
				// No candidates survived: nothing to decode, resume
				// hunting over whatever follows.
				m.rearm(m.scan.i)
				continue
			}
			m.anchor = anchor
			m.state = StateDecoding
			// Largest span any decode attempt may read: the +BitPeriod
			// retry shifted anchor plus a maximal frame body.
			m.needUpTo = anchor + DecodeGateSpan(m.d.p)
		case StateDecoding:
			if m.n < m.needUpTo && !m.flushed {
				return
			}
			frame, usedAnchor, err := m.d.decodeFrameWinWithRetry(m.window(), m.anchor, m.bitBuf)
			if err != nil {
				m.events = append(m.events, StreamEvent{Kind: EventDecodeError, Anchor: m.anchor, Err: err})
				m.rearm(m.scan.i)
			} else {
				total := HeaderBits + len(frame.Data)*8 + CRCBits
				end := usedAnchor + (PreambleBits+total-1)*m.d.p.BitPeriod + m.d.p.StableLen
				m.events = append(m.events, StreamEvent{Kind: EventFrame, Anchor: usedAnchor, Frame: frame, End: end})
				m.rearm(end)
			}
		}
	}
}

// feedScanner streams buffered phases into the preamble scanner via the
// batched hunt kernel, reporting whether the scan completed. It also
// emits the lock event on the first threshold crossing: every rearm and
// Reset unlocks the scanner, so the crossing is the call that finds it
// unlocked and leaves it locked.
func (m *FrameMachine) feedScanner() bool {
	wasLocked := m.scan.locked()
	done := m.scan.huntChunk(m.window(), m.n)
	if !wasLocked && m.scan.locked() {
		m.events = append(m.events, StreamEvent{Kind: EventLock, Anchor: m.scan.lockAnchor})
	}
	return done
}

// rearm restarts hunting at stream index from, clamped to between the
// scan position and the newest phase: the scanner is reset cold (fold
// warm-up included, ring reused in place) and already-buffered phases
// past from will be rescanned by the caller's advance loop. Frame
// bodies are skipped wholesale (from = frame end), so their codeword
// runs cannot re-trigger the fold detector.
func (m *FrameMachine) rearm(from int) {
	m.scan.reset(min(max(from, m.scan.i), m.n))
	m.state = StateHunting
	m.trim()
}

// window returns the retained history as a phaseWindow.
func (m *FrameMachine) window() phaseWindow {
	return phaseWindow{data: m.buf, base: m.base}
}

// selectionWindow returns the history candidate selection reads: the
// retained window from a floor that every chunking of the stream holds,
// the later of the scanner's restart point and the lock anchor plus a
// fold span and a stable window, less the retention. Every trim since
// the restart ran either at the re-arm, which never cuts past the
// restart point, or after a push the scanner consumed without locking.
// Such a push ended short of the phase completing the locking anchor,
// a fold span and a stable window less two past the lock anchor, and
// trim kept at least the retention behind its end, so the floor never
// precedes the window. Selection therefore reads the same phases
// whether the stream came whole or in chunks, and the frame decode
// reads only ahead of the anchor selection picks.
func (m *FrameMachine) selectionWindow() phaseWindow {
	p := m.d.p
	from := max(m.scan.start, m.scan.lockAnchor+m.scan.foldSpan+p.StableLen-defaultRetention(p))
	w := m.window()
	return phaseWindow{data: w.data[from-w.base:], base: from}
}

// trim drops history that hunting can no longer reach. Only safe while
// no fold candidate exists: from the first candidate until the frame is
// resolved the whole window stays pinned for the template stage.
func (m *FrameMachine) trim() {
	if m.state != StateHunting || m.scan.locked() {
		return
	}
	cut := len(m.buf) - defaultRetention(m.d.p)
	// Never cut past the scan position: everything from scan.i on is
	// still unscanned (e.g. the lookahead buffered while a previous
	// frame was being decoded) and will be fed to the scanner next.
	if maxCut := m.scan.i - m.base; cut > maxCut {
		cut = maxCut
	}
	if cut > 0 {
		m.buf = append(m.buf[:0], m.buf[cut:]...)
		m.base += cut
	}
}
