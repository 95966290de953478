package main

import (
	"bytes"
	"context"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"symbee/internal/cli"
	"symbee/internal/core"
	"symbee/internal/trace"
)

// TestRunReplaysTwoFrameTraces drives run over a two-frame IQ trace and
// its phase-kind twin: 3 streams on 2 workers, each looping the capture
// twice in 777-sample chunks, every stream pushed by its own producer
// goroutine. Each stream must decode both frames of every loop. Under
// the race detector this covers the producers, the pool's workers and
// the event printer's lock.
func TestRunReplaysTwoFrameTraces(t *testing.T) {
	const (
		streams, repeat = 3, 2
		framesPerLoop   = 2
	)
	p := core.Params20()
	l, err := core.NewLink(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 20,000-sample gaps (1 ms) outlast the refinement span of a false
	// lock on a frame's checksum tail, which would otherwise swallow the
	// next preamble.
	const gap = 20000
	var iq []complex128
	for _, f := range []*core.Frame{{Seq: 1, Data: []byte("one")}, {Seq: 2, Data: []byte("two")}} {
		sig, err := l.TransmitFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		iq = append(append(iq, make([]complex128, gap)...), sig...)
	}
	iq = append(iq, make([]complex128, gap)...)

	dir := t.TempDir()
	iqPath := filepath.Join(dir, "two.sbtr")
	if err := (&trace.Trace{Kind: trace.KindIQ, SampleRate: p.SampleRate, IQ: iq}).Save(iqPath); err != nil {
		t.Fatal(err)
	}
	// The twin carries the phases of the IQ as saved (complex64).
	saved, err := trace.Load(iqPath)
	if err != nil {
		t.Fatal(err)
	}
	phasePath := filepath.Join(dir, "two-phases.sbtr")
	twin := &trace.Trace{Kind: trace.KindPhase, SampleRate: p.SampleRate, Phases: l.Phases(saved.IQ)}
	if err := twin.Save(phasePath); err != nil {
		t.Fatal(err)
	}

	framesLine := regexp.MustCompile(`(?m)^frames=(\d+) `)
	for _, path := range []string{iqPath, phasePath} {
		var out bytes.Buffer
		err := run(context.Background(), replayConfig{
			input:   &cli.Input{Path: path},
			streams: streams, repeat: repeat, chunk: 777, workers: 2,
			out: &out,
		})
		if err != nil {
			t.Fatalf("%s: run: %v", filepath.Base(path), err)
		}
		m := framesLine.FindSubmatch(out.Bytes())
		if m == nil {
			t.Fatalf("%s: no frames= line in\n%s", filepath.Base(path), out.Bytes())
		}
		if got, _ := strconv.Atoi(string(m[1])); got != streams*repeat*framesPerLoop {
			t.Errorf("%s: frames=%d, want %d\n%s", filepath.Base(path), got, streams*repeat*framesPerLoop, out.Bytes())
		}
	}
}
