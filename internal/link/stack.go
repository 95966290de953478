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
	// front-end stage (phase-fed presets).
	ErrNoFrontEnd = errors.New("link: stack has no IQ front-end (push phases, or set Spec.FrontEnd)")
	// ErrClosed reports input pushed into a closed stack.
	ErrClosed = errors.New("link: stack closed")
)

// Spec selects the stages of a Stack. The zero value is invalid: a
// Decoder is required (share one across stacks — pool shards do — or
// build one with core.NewDecoder).
type Spec struct {
	// Decoder supplies the parameter set, CFO compensation, capture
	// threshold and matched-filter template every decode stage shares.
	Decoder *core.Decoder
	// FrontEnd enables the IQ→phase stage (dsp.PhaseDiffStreamer).
	// Without it the stack is phase-fed: PushIQ reports ErrNoFrontEnd.
	FrontEnd bool
	// Batch selects unbounded frame-machine history: whole-capture
	// semantics, bit-identical to the historical batch decode entry.
	// The default is the bounded-retention streaming configuration.
	Batch bool
	// Stream tags emitted events with a stream identity (pool shards
	// demultiplex on it).
	Stream uint64
	// Phase layers run between the front-end and the frame machine, in
	// order.
	Phase []PhaseLayer
	// Sinks receive every event, in order, before the built-in
	// collector.
	Sinks []EventLayer
	// Metrics receives stage instrumentation; nil leaves the stack
	// uninstrumented (the hot path then skips all accounting).
	Metrics *Metrics
}

// frontEnd is the built-in IQ→phase stage.
type frontEnd struct {
	phaser *dsp.PhaseDiffStreamer
	stats  LayerStats
}

func (f *frontEnd) Name() string      { return "frontend" }
func (f *frontEnd) Flush() error      { return nil } // the lag tail never completes, as in batch PhaseDiffStream
func (f *frontEnd) Close() error      { return nil }
func (f *frontEnd) Stats() LayerStats { return f.stats }

// frameStage is the built-in preamble-scan / frame-machine stage.
type frameStage struct {
	machine *core.FrameMachine
	stats   LayerStats
}

func (f *frameStage) Name() string { return "frame" }
func (f *frameStage) Flush() error {
	f.machine.Flush()
	return nil
}
func (f *frameStage) Close() error      { return nil }
func (f *frameStage) Stats() LayerStats { return f.stats }

// Stack is one assembled receive pipeline: optional IQ front-end,
// optional phase layers, the preamble-scan/frame-machine stage, and a
// chain of event sinks ending in the built-in Collector. It accepts IQ
// or phase chunks of any size and emits events exactly as a batch
// decode of the concatenated stream would. A Stack is owned by one
// goroutine (its pool worker or harness); it is not safe for concurrent
// use.
type Stack struct {
	dec       *core.Decoder
	front     *frontEnd // nil when phase-fed
	phase     []PhaseLayer
	frame     *frameStage
	sinks     []EventLayer // user sinks then the collector, in dispatch order
	collector *Collector
	metrics   *Metrics
	stream    uint64
	scratch   []float64
	closed    bool
}

// New assembles a stack from the spec.
func New(spec Spec) (*Stack, error) {
	if spec.Decoder == nil {
		return nil, fmt.Errorf("link: %w", errNilDecoder)
	}
	var machine *core.FrameMachine
	var err error
	if spec.Batch {
		machine, err = spec.Decoder.NewBatchMachine()
	} else {
		machine, err = spec.Decoder.NewFrameMachine()
	}
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	s := &Stack{
		dec:       spec.Decoder,
		phase:     spec.Phase,
		frame:     &frameStage{machine: machine, stats: LayerStats{Name: "frame"}},
		collector: NewCollector(),
		metrics:   spec.Metrics,
		stream:    spec.Stream,
	}
	if spec.FrontEnd {
		phaser, err := dsp.NewPhaseDiffStreamer(spec.Decoder.Params().Lag)
		if err != nil {
			return nil, fmt.Errorf("link: %w", err)
		}
		s.front = &frontEnd{phaser: phaser, stats: LayerStats{Name: "frontend"}}
	}
	s.sinks = append(s.sinks, spec.Sinks...)
	s.sinks = append(s.sinks, s.collector)
	return s, nil
}

var errNilDecoder = errors.New("spec needs a Decoder")

// Preset constructors — the three historical pipeline assemblies as
// configurations of one Stack.

// NewBatch returns the whole-capture preset: phase-fed, unbounded
// machine history. Push one capture, Flush, Drain — bit-identical to
// the historical Decoder.DecodeFrame batch entry at any chunking.
func NewBatch(d *core.Decoder, m *Metrics) (*Stack, error) {
	return New(Spec{Decoder: d, Batch: true, Metrics: m})
}

// NewStreaming returns the per-stream real-time preset the pool runs
// one of per shard session: IQ front-end plus bounded machine history.
func NewStreaming(d *core.Decoder, stream uint64, m *Metrics) (*Stack, error) {
	return New(Spec{Decoder: d, FrontEnd: true, Stream: stream, Metrics: m})
}

// NewReliable returns the ARQ-harness preset: phase-fed (the SimLink
// front-end runs per capture) with bounded history, so minutes of
// simulated airtime keep constant memory. Pair with PadHorizon to force
// the decode gate between captures.
func NewReliable(d *core.Decoder, m *Metrics) (*Stack, error) {
	return New(Spec{Decoder: d, Metrics: m})
}

// Stream returns the stack's stream identity tag.
func (s *Stack) Stream() uint64 { return s.stream }

// Decoder returns the shared decoder configuration.
func (s *Stack) Decoder() *core.Decoder { return s.dec }

// PushIQ consumes a chunk of IQ samples: the front-end turns them into
// phases, which run through the phase layers into the frame machine;
// resulting events fan out to the sinks. Pushing into a flushed stack
// reports core.ErrFlushed.
//
//symbee:hotpath
func (s *Stack) PushIQ(iq []complex128) error {
	if s.closed {
		return ErrClosed
	}
	if s.front == nil {
		return ErrNoFrontEnd
	}
	var start time.Time
	if s.metrics != nil {
		start = wallNow()
	}
	s.scratch = s.front.phaser.Process(iq, s.scratch[:0])
	s.front.stats.In += uint64(len(iq))
	s.front.stats.Out += uint64(len(s.scratch))
	var mid time.Time
	if s.metrics != nil {
		mid = wallNow()
		s.metrics.SamplesIn.Add(uint64(len(iq)))
		s.metrics.PhasesProduced.Add(uint64(len(s.scratch)))
		s.metrics.PhaseNanos.Observe(float64(mid.Sub(start)))
	}
	err := s.pushFrame(s.scratch)
	if s.metrics != nil {
		s.metrics.DecodeNanos.Observe(float64(wallNow().Sub(mid)))
	}
	if derr := s.dispatch(); err == nil {
		err = derr
	}
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
	err := s.pushFrame(phases)
	if s.metrics != nil {
		s.metrics.PhasesIn.Add(uint64(len(phases)))
		s.metrics.DecodeNanos.Observe(float64(wallNow().Sub(start)))
	}
	if derr := s.dispatch(); err == nil {
		err = derr
	}
	return err
}

// pushFrame runs phases through the phase layers and into the frame
// machine.
//
//symbee:hotpath
func (s *Stack) pushFrame(phases []float64) error {
	for _, l := range s.phase {
		out, err := l.ProcessPhases(phases)
		if err != nil {
			return err
		}
		phases = out
	}
	s.frame.stats.In += uint64(len(phases))
	return s.frame.machine.PushChunk(phases)
}

// dispatch moves freshly produced machine events through the sink
// chain, tagging them with the stream identity and folding counts into
// the shared metrics exactly once per event.
//
//symbee:hotpath
func (s *Stack) dispatch() error {
	var firstErr error
	for _, ev := range s.frame.machine.Events() {
		s.frame.stats.Out++
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
		e := Event{Stream: s.stream, StreamEvent: ev}
		for _, l := range s.sinks {
			if err := l.OnEvent(e); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Flush ends the stream: every layer forces its pending decision with
// the data at hand (the frame machine decodes a truncated tail exactly
// as the batch path does at the end of a capture), and the resulting
// events are dispatched.
func (s *Stack) Flush() error {
	var firstErr error
	if s.front != nil {
		if err := s.front.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, l := range s.phase {
		if err := l.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.frame.machine.Flush()
	if err := s.dispatch(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, l := range s.sinks {
		if err := l.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Reset returns the stack to a fresh hunting state at stream index 0,
// reusing every retained buffer: the reliable harness resets one batch
// stack per capture instead of building a machine per frame.
func (s *Stack) Reset() {
	if s.front != nil {
		s.front.phaser.Reset()
	}
	s.frame.machine.Reset()
	s.collector.pending = s.collector.pending[:0]
	s.closed = false
}

// Close flushes the stack and closes every layer; further pushes report
// ErrClosed (Reset reopens it).
func (s *Stack) Close() error {
	if s.closed {
		return nil
	}
	err := s.Flush()
	s.closed = true
	for _, l := range s.layers() {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Drain returns the events produced since the last call, tagged with
// the stack's stream identity. The returned slice is the built-in
// collector's internal queue and is reused: it stays valid only until
// the next PushIQ/PushPhases/Flush on this stack.
func (s *Stack) Drain() []Event { return s.collector.Drain() }

// State returns the frame machine's stage (for diagnostics).
func (s *Stack) State() core.MachineState { return s.frame.machine.State() }

// Buffered returns the machine's retained history length in phases.
func (s *Stack) Buffered() int { return s.frame.machine.Buffered() }

// layers returns every stage bottom-up.
func (s *Stack) layers() []Layer {
	out := make([]Layer, 0, 2+len(s.phase)+len(s.sinks))
	if s.front != nil {
		out = append(out, s.front)
	}
	for _, l := range s.phase {
		out = append(out, l)
	}
	out = append(out, s.frame)
	for _, l := range s.sinks {
		out = append(out, l)
	}
	return out
}

// LayerStats reports the per-layer accounting, bottom-up.
func (s *Stack) LayerStats() []LayerStats {
	ls := s.layers()
	out := make([]LayerStats, len(ls))
	for i, l := range ls {
		out[i] = l.Stats()
	}
	return out
}

// PadHorizon returns the number of zero phases that force the frame
// machine's pending decode gate open after a capture: the largest span
// a decode attempt may read (core.DecodeGateSpan) plus slackPeriods bit
// periods of anchor slack. Zero phases fold far below any capture
// threshold, so the pad cannot cause a false lock.
func PadHorizon(p core.Params, slackPeriods int) int {
	return core.DecodeGateSpan(p) + slackPeriods*p.BitPeriod
}

// DecodeBatch runs one whole phase capture through the batch preset and
// returns the first terminal event — the Stack form of the historical
// Decoder.DecodeFrame entry (which remains in core as the reference
// implementation the golden-trace equivalence tests compare against).
func DecodeBatch(d *core.Decoder, phases []float64) (*core.Frame, error) {
	st, err := NewBatch(d, nil)
	if err != nil {
		return nil, err
	}
	if err := st.PushPhases(phases); err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	for _, ev := range st.Drain() {
		switch ev.Kind {
		case core.EventFrame:
			return ev.Frame, nil
		case core.EventDecodeError:
			return nil, ev.Err
		}
	}
	return nil, core.ErrNoPreamble
}
