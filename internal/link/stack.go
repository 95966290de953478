package link

import (
	"errors"
	"fmt"
	"time"

	"symbee/internal/core"
	"symbee/internal/dsp"
)

// Stack errors.
var (
	// ErrNoFrontEnd reports IQ pushed into a stack built without the
	// front-end stage (the phase-fed batch preset).
	ErrNoFrontEnd = errors.New("link: stack has no IQ front-end (push phases, or build it with NewStreaming)")
	// ErrClosed reports input pushed into a closed stack.
	ErrClosed = errors.New("link: stack closed")
)

// Event is one occurrence on one stream: a preamble lock, a decoded
// frame, or a decode failure. It wraps core.StreamEvent with the stream
// identity so multi-stream consumers (the pool, scenario harnesses) can
// demultiplex.
type Event struct {
	Stream uint64
	core.StreamEvent
}

// Stack is one assembled receive pipeline: the optional IQ front-end
// (dsp.PhaseDiffStreamer), the preamble-scan/frame machine
// (core.FrameMachine), and a reused queue of pending events the owner
// Drains. It accepts IQ or phase chunks of any size and emits the same
// events at any chunking. The batch preset decodes exactly as
// core.Decoder.DecodeFrame; the streaming preset's bounded history
// starts at each re-arm point, so on a multi-frame stream a decode
// error after a re-arm can report another anchor than the batch preset
// (DESIGN.md §11.2). A Stack is owned by one goroutine (its pool worker
// or harness); it is not safe for concurrent use.
type Stack struct {
	dec     *core.Decoder
	phaser  *dsp.PhaseDiffStreamer // nil when phase-fed
	machine *core.FrameMachine
	pending []Event
	metrics *Metrics
	stream  uint64
	scratch []float64
	closed  bool
}

// newStack builds the stack both presets start from: phase-fed, with
// unbounded machine history when batch is set and bounded retention
// otherwise. A decoder is required (share one across stacks — pool
// shards do — or build one with core.NewDecoder).
func newStack(d *core.Decoder, batch bool, m *Metrics) (*Stack, error) {
	if d == nil {
		return nil, fmt.Errorf("link: %w", errNilDecoder)
	}
	newMachine := d.NewFrameMachine
	if batch {
		newMachine = d.NewBatchMachine
	}
	machine, err := newMachine()
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	return &Stack{dec: d, machine: machine, metrics: m}, nil
}

var errNilDecoder = errors.New("stack needs a Decoder")

// NewBatch returns the whole-capture preset: phase-fed, unbounded
// machine history. Push one capture, Flush, Drain — bit-identical to
// core's Decoder.DecodeFrame at any chunking.
func NewBatch(d *core.Decoder, m *Metrics) (*Stack, error) {
	return newStack(d, true, m)
}

// NewStreaming returns the per-stream real-time preset the pool runs
// one of per shard session: IQ front-end plus bounded machine history,
// with every event tagged by the stream identity.
func NewStreaming(d *core.Decoder, stream uint64, m *Metrics) (*Stack, error) {
	s, err := newStack(d, false, m)
	if err != nil {
		return nil, err
	}
	s.stream = stream
	if s.phaser, err = dsp.NewPhaseDiffStreamer(d.Params().Lag); err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	return s, nil
}

// Stream returns the stack's stream identity tag.
func (s *Stack) Stream() uint64 { return s.stream }

// Decoder returns the shared decoder configuration.
func (s *Stack) Decoder() *core.Decoder { return s.dec }

// PushIQ consumes a chunk of IQ samples: the front-end turns them into
// phases for the frame machine, and resulting events join the pending
// queue. Pushing into a flushed stack reports core.ErrFlushed.
//
//symbee:hotpath
func (s *Stack) PushIQ(iq []complex128) error {
	if s.closed {
		return ErrClosed
	}
	if s.phaser == nil {
		return ErrNoFrontEnd
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
// stack reports core.ErrFlushed.
//
//symbee:hotpath
func (s *Stack) PushPhases(phases []float64) error {
	if s.closed {
		return ErrClosed
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
// PhaseDiffStream.
func (s *Stack) Flush() error {
	s.machine.Flush()
	s.dispatch()
	return nil
}

// Reset returns the stack to a fresh hunting state at stream index 0,
// reusing every retained buffer: the reliable harness resets one batch
// stack per capture instead of building a machine per frame.
func (s *Stack) Reset() {
	if s.phaser != nil {
		s.phaser.Reset()
	}
	s.machine.Reset()
	s.pending = s.pending[:0]
	s.closed = false
}

// Close flushes the stack; further pushes report ErrClosed (Reset
// reopens it).
func (s *Stack) Close() error {
	if s.closed {
		return nil
	}
	err := s.Flush()
	s.closed = true
	return err
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

// State returns the frame machine's stage (for diagnostics).
func (s *Stack) State() core.MachineState { return s.machine.State() }

// Buffered returns the machine's retained history length in phases.
func (s *Stack) Buffered() int { return s.machine.Buffered() }
