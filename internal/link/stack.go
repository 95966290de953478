package link

import (
	"errors"
	"fmt"
	"time"

	"symbee/internal/core"
	"symbee/internal/dsp"
)

// Event is one occurrence on one stream: a preamble lock, a decoded
// frame, or a decode failure. It wraps core.StreamEvent with the stream
// identity so multi-stream consumers (the pool, scenario harnesses) can
// demultiplex.
type Event struct {
	Stream uint64
	core.StreamEvent
}

// Stack is one assembled receive pipeline: the IQ front-end
// (dsp.PhaseDiffStreamer), the preamble-scan/frame machine
// (core.FrameMachine), and a reused queue of pending events the owner
// Drains. It accepts IQ or phase chunks of any size, and a capture
// decodes to the same events whether it is pushed whole or in any
// chunking; for a phase capture the first terminal event is
// core.Decoder.DecodeFrame's result (DESIGN.md §11.2). A Stack is owned
// by one goroutine (its pool worker or harness); it is not safe for
// concurrent use.
type Stack struct {
	phaser  *dsp.PhaseDiffStreamer
	machine *core.FrameMachine
	pending []Event
	metrics *Metrics
	stream  uint64
	scratch []float64
	flushed bool // set by Flush, cleared by Reset: pushes do no work
}

var errNilDecoder = errors.New("stack needs a Decoder")

// NewBatch returns a stack for whole-capture decoding: push one
// capture, Flush, Drain. It is NewStreaming with stream identity 0.
func NewBatch(d *core.Decoder, m *Metrics) (*Stack, error) {
	return NewStreaming(d, 0, m)
}

// NewStreaming returns a stack whose events carry the given stream
// identity; the pool runs one per shard session. A decoder is required
// (share one across stacks — pool shards do — or build one with
// core.NewDecoder).
func NewStreaming(d *core.Decoder, stream uint64, m *Metrics) (*Stack, error) {
	if d == nil {
		return nil, fmt.Errorf("link: %w", errNilDecoder)
	}
	machine, err := d.NewFrameMachine()
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	phaser, err := dsp.NewPhaseDiffStreamer(d.Params().Lag)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	return &Stack{phaser: phaser, machine: machine, metrics: m, stream: stream}, nil
}

// PushIQ consumes a chunk of IQ samples: the front-end turns them into
// phases for the frame machine, and resulting events join the pending
// queue. Pushing into a flushed stack reports core.ErrFlushed before
// any work, so the registry counts only accepted chunks.
//
//symbee:hotpath
func (s *Stack) PushIQ(iq []complex128) error {
	if s.flushed {
		return core.ErrFlushed
	}
	var start time.Time
	if s.metrics != nil {
		start = wallNow()
	}
	s.scratch = s.phaser.Process(iq, s.scratch[:0])
	var mid time.Time
	if s.metrics != nil {
		mid = wallNow()
		s.metrics.SamplesIn.Add(uint64(len(iq)))
		s.metrics.PhasesProduced.Add(uint64(len(s.scratch)))
		s.metrics.PhaseNanos.Observe(float64(mid.Sub(start)))
	}
	err := s.machine.PushChunk(s.scratch)
	if s.metrics != nil {
		s.metrics.DecodeNanos.Observe(float64(wallNow().Sub(mid)))
	}
	s.dispatch()
	return err
}

// PushPhases consumes a chunk of already-computed phase values (a
// phase-kind trace, or an external front-end). Pushing into a flushed
// stack reports core.ErrFlushed before any work, as PushIQ does.
//
//symbee:hotpath
func (s *Stack) PushPhases(phases []float64) error {
	if s.flushed {
		return core.ErrFlushed
	}
	var start time.Time
	if s.metrics != nil {
		start = wallNow()
	}
	err := s.machine.PushChunk(phases)
	if s.metrics != nil {
		s.metrics.PhasesIn.Add(uint64(len(phases)))
		s.metrics.DecodeNanos.Observe(float64(wallNow().Sub(start)))
	}
	s.dispatch()
	return err
}

// dispatch moves freshly produced machine events onto the pending
// queue, tagging them with the stream identity and folding counts into
// the shared metrics exactly once per event.
//
//symbee:hotpath
func (s *Stack) dispatch() {
	for _, ev := range s.machine.Events() {
		if s.metrics != nil {
			switch ev.Kind {
			case core.EventLock:
				s.metrics.Locks.Add(1)
			case core.EventFrame:
				s.metrics.FramesDecoded.Add(1)
			case core.EventDecodeError:
				s.metrics.FramesFailed.Add(1)
			}
		}
		s.pending = append(s.pending, Event{Stream: s.stream, StreamEvent: ev})
	}
}

// Flush ends the stream: the frame machine forces its pending decision
// with the data at hand (decoding a truncated tail exactly as the batch
// path does at the end of a capture), and the resulting events join the
// pending queue. The front-end's lag tail never completes, as in batch
// PhaseDiffStream. Later pushes report core.ErrFlushed until Reset.
// The returned error is always nil: neither step can fail.
func (s *Stack) Flush() error {
	s.flushed = true
	s.machine.Flush()
	s.dispatch()
	return nil
}

// Reset returns the stack to a fresh hunting state at stream index 0,
// reusing every retained buffer: the reliable harness resets one batch
// stack per capture instead of building a machine per frame.
func (s *Stack) Reset() {
	s.phaser.Reset()
	s.machine.Reset()
	s.pending = s.pending[:0]
	s.flushed = false
}

// Drain returns the events produced since the last call, tagged with
// the stack's stream identity. The returned slice is the stack's
// internal queue and is reused: it stays valid only until the next
// PushIQ/PushPhases/Flush on this stack. Consumers that buffer events
// across pushes must copy the elements out (Frame pointers remain valid
// indefinitely).
func (s *Stack) Drain() []Event {
	out := s.pending
	s.pending = s.pending[:0]
	return out
}

// Buffered returns the machine's retained history length in phases.
func (s *Stack) Buffered() int { return s.machine.Buffered() }
