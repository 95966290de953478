// Command symbeestream replays a trace file (or raw IQ from stdin)
// through the real-time streaming receiver pipeline (internal/stream):
// the capture is chopped into chunks, fanned out over N logical streams
// into the sharded worker pool, and decoded frames are printed as they
// fall out, followed by a throughput line and the pipeline's metrics
// snapshot as JSON.
//
// Usage:
//
//	symbeestream -in packet.sbtr
//	symbeestream -in packet.sbtr -streams 8 -workers 4 -repeat 20
//	symbeestream -in packet.sbtr -sps 20e6            # pace at 20 Msps
//	symbeestream -raw -rate 20e6 < iq.bin             # raw complex64 LE stdin
//	symbeestream -in packet.sbtr -drop -queue 4       # load-shedding mode
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"symbee/internal/cli"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/stream"
	"symbee/internal/trace"
	"symbee/internal/wifi"
)

func main() {
	var (
		input     = cli.RegisterInput(flag.CommandLine, true)
		workers   = cli.RegisterWorkers(flag.CommandLine)
		streams   = flag.Int("streams", 1, "replay the capture as this many concurrent streams")
		repeat    = flag.Int("repeat", 1, "times each stream loops the capture")
		chunk     = flag.Int("chunk", 4096, "chunk size in samples")
		queue     = flag.Int("queue", 0, "per-worker queue depth (0 = default)")
		drop      = flag.Bool("drop", false, "drop chunks when a worker queue is full instead of blocking")
		sps       = flag.Float64("sps", 0, "pace each stream at this many samples/sec (0 = as fast as possible)")
		comp      = flag.Float64("comp", 0, "CFO compensation in radians (ignored with -canonical)")
		canonical = flag.Bool("canonical", false, "use the canonical +4π/5 CFO compensation")
		quiet     = flag.Bool("quiet", false, "suppress per-frame output")
	)
	flag.Parse()
	compensation := *comp
	if *canonical {
		compensation = wifi.CanonicalCompensation
	}
	// SIGINT/SIGTERM cancel the replay: the pool flushes its open
	// sessions and the final metrics snapshot is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, replayConfig{
		input:   input,
		streams: *streams, repeat: *repeat, chunk: *chunk,
		workers: *workers, queue: *queue, drop: *drop,
		sps: *sps, compensation: compensation, quiet: *quiet,
		out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbeestream:", err)
		os.Exit(1)
	}
}

type replayConfig struct {
	input        *cli.Input
	streams      int
	repeat       int
	chunk        int
	workers      int
	queue        int
	drop         bool
	sps          float64
	compensation float64
	quiet        bool
	// out receives the frame lines, the summary and the metrics.
	out io.Writer
}

func run(ctx context.Context, cfg replayConfig) error {
	tr, err := cfg.input.Load()
	if err != nil {
		return err
	}
	if tr.Len() == 0 {
		return fmt.Errorf("empty capture")
	}
	if cfg.streams < 1 || cfg.repeat < 1 || cfg.chunk < 1 {
		return fmt.Errorf("-streams, -repeat and -chunk must be ≥ 1")
	}
	p, err := cli.ParamsForTrace(tr)
	if err != nil {
		return err
	}

	var mu sync.Mutex
	pool, err := stream.NewPool(ctx, stream.Config{
		Params:       p,
		Compensation: cfg.compensation,
		Workers:      cfg.workers,
		QueueDepth:   cfg.queue,
		DropWhenFull: cfg.drop,
		OnEvent: func(ev link.Event) {
			if cfg.quiet {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case core.EventFrame:
				fmt.Fprintf(cfg.out, "stream %d: frame @%d seq=%d flags=%#x data=%q\n",
					ev.Stream, ev.Anchor, ev.Frame.Seq, ev.Frame.Flags, ev.Frame.Data)
			case core.EventDecodeError:
				fmt.Fprintf(cfg.out, "stream %d: decode error @%d: %v\n", ev.Stream, ev.Anchor, ev.Err)
			}
		},
	})
	if err != nil {
		return err
	}

	totalPerStream := uint64(tr.Len()) * uint64(cfg.repeat)
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < cfg.streams; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			pushed := uint64(0)
			for rep := 0; rep < cfg.repeat; rep++ {
				for off := 0; off < tr.Len(); off += cfg.chunk {
					end := off + cfg.chunk
					if end > tr.Len() {
						end = tr.Len()
					}
					c := stream.Chunk{Stream: id}
					if tr.Kind == trace.KindIQ {
						c.IQ = tr.IQ[off:end]
					} else {
						c.Phases = tr.Phases[off:end]
					}
					if !pool.Ingest(c) && ctx.Err() != nil {
						return // canceled: the pool is draining
					}
					pushed += uint64(end - off)
					if cfg.sps > 0 {
						// Pace the replay: sleep off any lead over the
						// target rate.
						ahead := float64(pushed)/cfg.sps - time.Since(start).Seconds()
						if ahead > 0 {
							time.Sleep(time.Duration(ahead * float64(time.Second)))
						}
					}
				}
			}
			pool.Ingest(stream.Chunk{Stream: id, Flush: true})
		}(uint64(id))
	}
	wg.Wait()
	pool.Close()
	elapsed := time.Since(start).Seconds()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "symbeestream: interrupted — flushed open sessions, final metrics follow")
	}

	s := pool.Metrics().Snapshot()
	processed := s.SamplesIn + s.PhasesIn
	rate := float64(processed) / elapsed
	fmt.Fprintf(cfg.out, "\nreplayed %d stream(s) × %d samples in %.3fs: %.1f Msps aggregate (%.2fx real time)\n",
		cfg.streams, totalPerStream, elapsed, rate/1e6, rate/(p.SampleRate*float64(cfg.streams)))
	fmt.Fprintf(cfg.out, "frames=%d errors=%d locks=%d drops=%d\n", s.FramesDecoded, s.FramesFailed, s.Locks, s.Drops)
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "metrics: %s\n", out)
	return nil
}
