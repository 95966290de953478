package symbee

import (
	"context"

	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/stream"
)

// Streaming re-exports: the streaming receive stack of internal/link and
// the worker pool of internal/stream through the public surface.
type (
	// Receiver is a single-stream incremental receiver: push IQ or
	// phase chunks, drain decode events.
	Receiver = link.Stack
	// Pool is the sharded multi-stream receiver: N workers, each owning
	// the sessions of the streams hashed to it.
	Pool = stream.Pool
	// Chunk is one unit of pool ingestion.
	Chunk = stream.Chunk
	// Metrics is the pipeline instrumentation registry.
	Metrics = link.Metrics
	// MetricsSnapshot is the JSON-stable point-in-time metrics state.
	MetricsSnapshot = link.Snapshot
	// Event is one decode occurrence (lock, frame, error) on one stream.
	Event = link.Event
	// StreamEventKind discriminates Event kinds.
	StreamEventKind = core.StreamEventKind
)

// Event kinds.
const (
	// EventLock: a preamble fold crossed the capture threshold.
	EventLock = core.EventLock
	// EventFrame: a frame decoded and passed its checksum.
	EventFrame = core.EventFrame
	// EventDecodeError: a locked preamble failed to decode.
	EventDecodeError = core.EventDecodeError
)

// NewMetrics returns a zeroed metrics registry, shareable across
// receivers, pools and reliable sessions.
var NewMetrics = link.NewMetrics

// streamOptions is the resolved option state shared by NewReceiver and
// NewPool.
type streamOptions struct {
	cfg stream.Config
	ctx context.Context
}

// StreamOption configures NewReceiver and NewPool. All public streaming
// entry points are option-based; the zero configuration is a working
// receiver (Params20, canonical compensation, GOMAXPROCS workers,
// lossless backpressure).
type StreamOption func(*streamOptions)

// WithParams selects the receiver parameter set (default Params20).
func WithParams(p Params) StreamOption {
	return func(o *streamOptions) { o.cfg.Params = p }
}

// WithCompensation overrides the CFO compensation the decode chain
// applies (default CanonicalCompensation; use 0 for baseband-aligned
// captures such as simulation output).
func WithCompensation(c float64) StreamOption {
	return func(o *streamOptions) { o.cfg.Compensation = c }
}

// WithMetrics instruments the receiver or pool with an external metrics
// registry. Without it a receiver is uninstrumented and a pool keeps a
// private registry (Pool.Metrics).
func WithMetrics(m *Metrics) StreamOption {
	return func(o *streamOptions) { o.cfg.Metrics = m }
}

// WithWorkers sets the pool's shard-worker count (default GOMAXPROCS).
// It has no effect on a single-stream receiver.
func WithWorkers(n int) StreamOption {
	return func(o *streamOptions) { o.cfg.Workers = n }
}

// WithRealTime switches the pool to receiver-paced backpressure: each
// worker queue holds queueDepth chunks and Ingest drops (and counts)
// instead of blocking when a queue is full. Without it the pool is
// producer-paced and lossless.
func WithRealTime(queueDepth int) StreamOption {
	return func(o *streamOptions) {
		o.cfg.DropWhenFull = true
		if queueDepth > 0 {
			o.cfg.QueueDepth = queueDepth
		}
	}
}

// WithEvents registers a pool event callback. It is invoked from worker
// goroutines (serialized per stream, concurrent across streams).
func WithEvents(fn func(Event)) StreamOption {
	return func(o *streamOptions) { o.cfg.OnEvent = fn }
}

// WithContext binds the pool to ctx (nil binds nothing): cancellation
// closes the pool, flushing open sessions and joining the workers.
func WithContext(ctx context.Context) StreamOption {
	return func(o *streamOptions) { o.ctx = ctx }
}

func resolveStreamOptions(opts []StreamOption) streamOptions {
	o := streamOptions{ctx: context.Background()}
	o.cfg.Params = Params20()
	o.cfg.Compensation = CanonicalCompensation
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// NewReceiver builds a single-stream incremental receiver for the given
// parameter set: push IQ (or phase) chunks of any size, drain events.
// A capture decodes to the same events whether it is pushed whole or in
// any chunking, and a batch decode runs the same receiver. It skips all
// metrics accounting unless WithMetrics is given.
//
//	rx, err := symbee.NewReceiver(symbee.Params20(), symbee.WithCompensation(0))
//	rx.PushIQ(capture)
//	rx.Flush()
//	for _, ev := range rx.Drain() { ... }
func NewReceiver(p Params, opts ...StreamOption) (*Receiver, error) {
	o := resolveStreamOptions(opts)
	d, err := core.NewDecoder(p, o.cfg.Compensation)
	if err != nil {
		return nil, err
	}
	return link.NewStreaming(d, 0, o.cfg.Metrics)
}

// NewPool builds the sharded multi-stream receiver pool. With no
// options it listens with Params20, canonical compensation and one
// worker per CPU, blocking producers when saturated.
//
//	pool, err := symbee.NewPool(symbee.WithWorkers(4), symbee.WithRealTime(64))
//	pool.Ingest(symbee.Chunk{Stream: id, IQ: samples})
//	defer pool.Close()
func NewPool(opts ...StreamOption) (*Pool, error) {
	o := resolveStreamOptions(opts)
	return stream.NewPool(o.ctx, o.cfg)
}
