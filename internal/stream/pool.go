package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"symbee/internal/core"
	"symbee/internal/link"
)

// Chunk is one unit of ingestion: a slab of IQ samples or phase values
// belonging to one stream. Exactly one of IQ/Phases should be set (both
// set is allowed and processes IQ first). The pool copies nothing on
// the ingest path — the chunk slices are handed to the owning worker,
// so the producer must not reuse them until the chunk is processed;
// producers that recycle buffers should hand over fresh slices or wait
// for the stream's flush.
type Chunk struct {
	// Stream identifies the logical link the samples belong to. All
	// chunks of one stream are processed in ingest order by one worker.
	Stream uint64
	// IQ samples (front-end input).
	IQ []complex128
	// Phases values (front-end already applied).
	Phases []float64
	// Flush marks the end of the stream: the session decodes whatever
	// remains and is torn down.
	Flush bool
}

// Config parameterizes a Pool.
type Config struct {
	// Params is the receiver parameter set (Params20/Params40/...).
	Params core.Params
	// Compensation is the CFO compensation every stream's decoder
	// applies (wifi.CanonicalCompensation for real channel pairs, 0 for
	// baseband-aligned captures).
	Compensation float64
	// Workers is the number of shard goroutines; ≤0 means GOMAXPROCS.
	Workers int
	// QueueDepth is each worker's chunk queue capacity; ≤0 means 64.
	QueueDepth int
	// DropWhenFull selects the backpressure policy: when a worker's
	// queue is full, Ingest either blocks until there is room (false,
	// the default — lossless, producer-paced) or rejects the chunk and
	// counts it in Metrics.Drops (true — real-time, receiver-paced).
	DropWhenFull bool
	// OnEvent, when set, receives every stream event. It is called from
	// worker goroutines (one call at a time per stream, but concurrent
	// across streams) and must be fast or thread-safe accordingly.
	OnEvent func(link.Event)
	// Metrics receives stage instrumentation; nil allocates a private
	// registry (retrievable via Pool.Metrics).
	Metrics *link.Metrics
}

// DefaultConfig returns the baseline pool configuration: the 20 Msps
// parameter set, no CFO compensation, one worker per CPU (Workers 0 =
// GOMAXPROCS), 64-deep queues and lossless backpressure.
func DefaultConfig() Config {
	return Config{Params: core.Params20(), QueueDepth: 64}
}

// Validate reports the first structural problem with the config. The
// Workers and QueueDepth fields keep their documented ≤0-means-default
// semantics, so only the receiver parameters can be structurally wrong.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// Pool is the sharded streaming receiver: N worker goroutines, each
// owning the sessions of the streams sharded to it, fed by bounded
// channels. Each session is one streaming-preset link.Stack. Stream state is touched only by its owning worker, so
// the decode hot path takes no locks; the only synchronization is the
// channel handoff and the atomic metrics.
type Pool struct {
	cfg     Config
	decoder *core.Decoder
	workers []*worker
	metrics *link.Metrics
	wg      sync.WaitGroup
	closed  bool          //symbee:guardedby mu
	mu      sync.RWMutex  // guards closed: Ingest holds R, Close holds W
	done    chan struct{} // closed when the pool has fully shut down
}

type worker struct {
	in       chan Chunk
	sessions map[uint64]*link.Stack
	pool     *Pool
}

// NewPool starts the workers and returns the pool. Callers must Close
// it to flush outstanding sessions and join the goroutines.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = link.NewMetrics()
	}
	d, err := core.NewDecoder(cfg.Params, cfg.Compensation)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	p := &Pool{cfg: cfg, decoder: d, metrics: cfg.Metrics, done: make(chan struct{})}
	p.workers = make([]*worker, cfg.Workers)
	for i := range p.workers {
		w := &worker{
			in:       make(chan Chunk, cfg.QueueDepth),
			sessions: make(map[uint64]*link.Stack),
			pool:     p,
		}
		p.workers[i] = w
		p.wg.Add(1)
		go w.run()
	}
	return p, nil
}

// NewPoolContext is NewPool bound to a context: when ctx is canceled
// the pool closes itself — open sessions are flushed, final events
// emitted, workers joined — and subsequent Ingest calls report false.
// Close remains safe to call (it is idempotent), so deferred cleanup
// and signal-driven shutdown compose.
func NewPoolContext(ctx context.Context, cfg Config) (*Pool, error) {
	p, err := NewPool(cfg)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		// The watcher joins itself: it exits through the p.done arm once
		// Close completes, and it is the goroutine that calls Close on
		// cancellation — waiting for it from Close would deadlock.
		go func() { //symbee:ignore concurrency -- exits via the p.done select arm when the pool closes; Close cannot join the goroutine that may itself be calling Close
			select {
			case <-ctx.Done():
				p.Close()
			case <-p.done:
			}
		}()
	}
	return p, nil
}

// Metrics returns the pool's registry.
func (p *Pool) Metrics() *link.Metrics { return p.metrics }

// Workers returns the shard count.
func (p *Pool) Workers() int { return len(p.workers) }

// shard routes a stream ID to its owning worker.
func (p *Pool) shard(stream uint64) *worker {
	return p.workers[stream%uint64(len(p.workers))]
}

// Ingest hands a chunk to the owning worker. It reports whether the
// chunk was accepted: with DropWhenFull it returns false (and counts a
// drop) when the worker's queue is full; after Close (including a
// context cancellation closing the pool) it returns false without
// counting a drop; otherwise it blocks until there is room and returns
// true. Ingest is safe for concurrent use by multiple producers; chunks
// of one stream keep their order only when produced by a single
// goroutine.
func (p *Pool) Ingest(c Chunk) bool {
	// The read lock pins the pool open across the send: Close takes the
	// write lock before closing the worker channels, so a send in flight
	// here can never hit a closed channel. A blocking send cannot
	// deadlock Close — the workers keep draining until Close's write
	// lock is granted.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	w := p.shard(c.Stream)
	if p.cfg.DropWhenFull {
		select {
		case w.in <- c:
		default:
			p.metrics.Drops.Add(1)
			return false
		}
	} else {
		w.in <- c
	}
	p.metrics.ChunksIn.Add(1)
	return true
}

// Close flushes every open session (emitting any final events), stops
// the workers and waits for them to drain. It is idempotent and safe to
// call concurrently with Ingest (late chunks are rejected, not lost in
// a panic).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done // another Close is draining; wait for it
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, w := range p.workers {
		close(w.in)
	}
	p.wg.Wait()
	close(p.done)
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	for c := range w.in {
		w.process(c)
	}
	// Channel closed: flush whatever sessions remain so no buffered
	// frame is lost at shutdown. Session stacks have no sinks besides
	// the collector, so Flush cannot fail.
	for id, r := range w.sessions {
		_ = r.Flush()
		w.emit(r)
		delete(w.sessions, id)
		w.pool.metrics.StreamsFlushed.Add(1)
	}
}

func (w *worker) process(c Chunk) {
	start := wallNow()
	r, ok := w.sessions[c.Stream]
	if !ok {
		var err error
		r, err = link.NewStreaming(w.pool.decoder, c.Stream, w.pool.metrics)
		if err != nil {
			// The shared decoder was already validated when the pool was
			// built, so a stack for it cannot fail; count the chunk as
			// dropped rather than crash the worker if it somehow does.
			w.pool.metrics.Drops.Add(1)
			return
		}
		w.sessions[c.Stream] = r
		w.pool.metrics.StreamsOpened.Add(1)
	}
	// A push can only fail on a flushed machine; sessions are deleted at
	// flush, so a failure here means the chunk raced a close — drop it.
	if len(c.IQ) > 0 {
		if err := r.PushIQ(c.IQ); err != nil {
			w.pool.metrics.Drops.Add(1)
		}
	}
	if len(c.Phases) > 0 {
		if err := r.PushPhases(c.Phases); err != nil {
			w.pool.metrics.Drops.Add(1)
		}
	}
	if c.Flush {
		_ = r.Flush() // cannot fail: see run
		delete(w.sessions, c.Stream)
		w.pool.metrics.StreamsFlushed.Add(1)
	}
	w.emit(r)
	w.pool.metrics.ChunkNanos.Observe(float64(wallNow().Sub(start)))
}

func (w *worker) emit(r *link.Stack) {
	events := r.Drain()
	if w.pool.cfg.OnEvent == nil {
		return
	}
	for _, ev := range events {
		w.pool.cfg.OnEvent(ev)
	}
}
