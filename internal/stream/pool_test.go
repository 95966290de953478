package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/testutil"
	"symbee/internal/wifi"
)

// makeStreamCapture builds one capture carrying a frame whose Seq tags
// the stream it belongs to.
func makeStreamCapture(t *testing.T, p core.Params, seq byte, seed int64) []complex128 {
	t.Helper()
	l, err := core.NewLink(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := l.TransmitFrame(&core.Frame{Seq: seq, Data: []byte("pool")})
	if err != nil {
		t.Fatal(err)
	}
	m, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      20,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        400,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m.Transmit(sig)
}

// TestNewPoolRejectsNonFiniteCompensation: a pool whose decoder adds a
// NaN or infinite compensation would hunt forever on NaN phases.
// Validate reports it, and NewPool refuses it before starting any
// worker.
func TestNewPoolRejectsNonFiniteCompensation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: Validate = %v", err)
	}
	for _, comp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.Compensation = comp
		if err := cfg.Validate(); !errors.Is(err, errCompensation) {
			t.Errorf("compensation %v: Validate = %v, want errCompensation", comp, err)
		}
		if p, err := NewPool(context.Background(), cfg); !errors.Is(err, core.ErrBadCompensation) {
			if err == nil {
				p.Close()
			}
			t.Errorf("NewPool(compensation %v) error %v, want core.ErrBadCompensation", comp, err)
		}
	}
}

// TestPoolDecodesConcurrentStreams drives many streams from concurrent
// producers through a small worker pool and checks every stream's frame
// comes back tagged with the right stream ID. Run under -race this also
// proves the shard-ownership model: stream state is only ever touched by
// its owning worker.
func TestPoolDecodesConcurrentStreams(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	p := core.Params20()
	const streams = 8
	captures := make([][]complex128, streams)
	for i := range captures {
		captures[i] = makeStreamCapture(t, p, byte(i+1), int64(100+i))
	}

	var mu sync.Mutex
	frames := map[uint64][]*core.Frame{}
	pool, err := NewPool(context.Background(), Config{
		Params:       p,
		Compensation: wifi.CanonicalCompensation,
		Workers:      3,
		QueueDepth:   8,
		OnEvent: func(ev link.Event) {
			if ev.Kind == core.EventFrame {
				mu.Lock()
				frames[ev.Stream] = append(frames[ev.Stream], ev.Frame)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for id := 0; id < streams; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			iq := captures[id]
			for off := 0; off < len(iq); off += 4096 {
				end := off + 4096
				if end > len(iq) {
					end = len(iq)
				}
				pool.Ingest(Chunk{Stream: uint64(id), IQ: iq[off:end]})
			}
			pool.Ingest(Chunk{Stream: uint64(id), Flush: true})
		}(id)
	}
	wg.Wait()
	pool.Close()

	for id := 0; id < streams; id++ {
		got := frames[uint64(id)]
		if len(got) != 1 {
			t.Fatalf("stream %d: %d frames, want 1", id, len(got))
		}
		if got[0].Seq != byte(id+1) || !bytes.Equal(got[0].Data, []byte("pool")) {
			t.Errorf("stream %d decoded %+v", id, got[0])
		}
	}
	s := pool.Metrics().Snapshot()
	if s.FramesDecoded != streams {
		t.Errorf("frames_decoded = %d, want %d", s.FramesDecoded, streams)
	}
	if s.StreamsOpened != streams || s.StreamsFlushed != streams {
		t.Errorf("streams opened/flushed = %d/%d, want %d/%d", s.StreamsOpened, s.StreamsFlushed, streams, streams)
	}
	if s.Drops != 0 {
		t.Errorf("blocking pool dropped %d chunks", s.Drops)
	}
}

// TestPoolCloseFlushesOpenStreams: a stream never explicitly flushed
// must still deliver its frame when the pool shuts down.
func TestPoolCloseFlushesOpenStreams(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	p := core.Params20()
	iq := makeStreamCapture(t, p, 42, 7)
	var mu sync.Mutex
	var got []*core.Frame
	pool, err := NewPool(context.Background(), Config{
		Params:       p,
		Compensation: wifi.CanonicalCompensation,
		Workers:      2,
		OnEvent: func(ev link.Event) {
			if ev.Kind == core.EventFrame {
				mu.Lock()
				got = append(got, ev.Frame)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Ingest(Chunk{Stream: 9, IQ: iq}) // no Flush chunk
	pool.Close()
	if len(got) != 1 || got[0].Seq != 42 {
		t.Fatalf("close-flush delivered %+v, want one frame with Seq 42", got)
	}
	if f := pool.Metrics().StreamsFlushed.Load(); f != 1 {
		t.Errorf("streams_flushed = %d, want 1", f)
	}
}

// TestPoolDropAccounting checks the load-shedding policy's books: every
// Ingest returns either accepted (counted in chunks_in) or rejected
// (counted in drops), and the two sides always sum to the offered load.
func TestPoolDropAccounting(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	p := core.Params20()
	iq := makeStreamCapture(t, p, 1, 8)
	pool, err := NewPool(context.Background(), Config{
		Params:       p,
		Compensation: wifi.CanonicalCompensation,
		Workers:      1,
		QueueDepth:   1,
		DropWhenFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const offered = 200
	accepted := 0
	for i := 0; i < offered; i++ {
		// Big slabs so the worker is still busy when the next chunk
		// arrives: drops are expected (but not asserted — timing).
		if pool.Ingest(Chunk{Stream: 0, IQ: iq}) {
			accepted++
		}
	}
	pool.Close()
	s := pool.Metrics().Snapshot()
	if int(s.ChunksIn) != accepted {
		t.Errorf("chunks_in = %d, accepted = %d", s.ChunksIn, accepted)
	}
	if int(s.Drops) != offered-accepted {
		t.Errorf("drops = %d, rejected = %d", s.Drops, offered-accepted)
	}
	if s.SamplesIn != uint64(accepted)*uint64(len(iq)) {
		t.Errorf("samples_in = %d, want %d", s.SamplesIn, uint64(accepted)*uint64(len(iq)))
	}
}

// TestPoolSharding: chunks of one stream always land on the same worker
// (ownership is stable), and IDs spread across workers.
func TestPoolSharding(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	pool, err := NewPool(context.Background(), Config{Params: core.Params20(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	seen := map[*worker]bool{}
	for id := uint64(0); id < 16; id++ {
		w := pool.shard(id)
		if again := pool.shard(id); again != w {
			t.Fatalf("stream %d: shard not stable", id)
		}
		seen[w] = true
	}
	if len(seen) != 4 {
		t.Errorf("16 ids hit %d of 4 workers", len(seen))
	}
}

// TestPoolContextCancelShutsDown: canceling the bound context closes
// the pool — workers and the watcher goroutine all exit (the leak
// checker enforces this) and late Ingest calls are rejected.
func TestPoolContextCancelShutsDown(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	pool, err := NewPool(ctx, Config{Params: core.Params20(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-pool.done
	if pool.Ingest(Chunk{Stream: 1, Phases: []float64{0}}) {
		t.Error("Ingest accepted a chunk after context cancellation")
	}
	pool.Close() // idempotent with the context-driven close
}
