package main

import (
	"bytes"
	"reflect"
	"testing"

	"symbee"
	"symbee/internal/core"
	"symbee/internal/medium"
)

func TestGeneratorsDeterministic(t *testing.T) {
	n := 1 << 16
	if !reflect.DeepEqual(genNoise(3, 2, n), genNoise(3, 2, n)) {
		t.Error("noise: equal seeds differ")
	}
	if reflect.DeepEqual(genNoise(3, 2, n), genNoise(4, 2, n)) {
		t.Error("noise: different seeds agree")
	}
	if reflect.DeepEqual(genNoise(3, 2, n), genNoise(3, 3, n)) {
		t.Error("noise: the two idle streams agree")
	}

	a, err := genCorpus(3, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCorpus(3, 1<<19)
	c, _ := genCorpus(4, 1<<19)
	if !reflect.DeepEqual(a, b) {
		t.Error("corpus: equal seeds differ")
	}
	if reflect.DeepEqual(a.iq, c.iq) || reflect.DeepEqual(a.frames, c.frames) {
		t.Error("corpus: different seeds agree")
	}

	if !bytes.Equal(arqMessage(3, 4096), arqMessage(3, 4096)) {
		t.Error("message: equal seeds differ")
	}
	if bytes.Equal(arqMessage(3, 4096), arqMessage(4, 4096)) {
		t.Error("message: different seeds agree")
	}

	ca, cb := crowdConfig(3, 256, 4), crowdConfig(4, 256, 4)
	if !reflect.DeepEqual(ca, crowdConfig(3, 256, 4)) || reflect.DeepEqual(ca, cb) {
		t.Error("crowd config: not a function of the seed")
	}
	if err := ca.Validate(); err != nil {
		t.Errorf("crowd config invalid: %v", err)
	}
	ea, err := medium.NewEngine(ca)
	if err != nil {
		t.Fatal(err)
	}
	eb, _ := medium.NewEngine(cb)
	if ea.Airtime() != eb.Airtime() {
		t.Errorf("crowd frames differ in airtime across seeds: %d vs %d", ea.Airtime(), eb.Airtime())
	}
}

// Every corpus frame sits in its own noise gap, inside the capture, and
// carries a payload the frame format accepts.
func TestCorpusLayout(t *testing.T) {
	cp, err := genCorpus(5, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.frames) < 40 {
		t.Fatalf("only %d frames in a full corpus", len(cp.frames))
	}
	prevEnd := -1
	sizes := map[int]bool{}
	for i, f := range cp.frames {
		if gap := f.start - prevEnd - 1; gap < minGap {
			t.Errorf("frame %d: gap %d < %d", i, gap, minGap)
		}
		if cp.frameAt(f.start) != i || cp.frameAt(f.end) != i || cp.frameAt(f.start-1) != -1 {
			t.Errorf("frame %d: frameAt disagrees with its span", i)
		}
		sizes[len(f.frame.Data)] = true
		prevEnd = f.end
	}
	if tail := len(cp.iq) - 1 - prevEnd; tail < minGap {
		t.Errorf("capture ends %d samples after the last frame, want a full gap", tail)
	}
	if !sizes[0] || !sizes[core.MaxDataBytes] {
		t.Errorf("payload sizes %v miss 0 or %d bytes", sizes, core.MaxDataBytes)
	}
}

// Pure idle_air noise must never decode as a frame: one that does is a
// wrong output.
func TestIdleNoiseHasNoFrames(t *testing.T) {
	n := fullSizes.idleSamples
	if testing.Short() {
		n /= 4
	}
	for s := 0; s < idleStreams; s++ {
		rx, err := symbee.NewReceiver(symbee.Params20())
		if err != nil {
			t.Fatal(err)
		}
		noise := genNoise(1, streamIdleBase+s, n)
		for off := 0; off < n; off += chunkSamples {
			if err := rx.PushIQ(noise[off : off+chunkSamples]); err != nil {
				t.Fatal(err)
			}
		}
		rx.Flush()
		for _, ev := range rx.Drain() {
			if ev.Kind == symbee.EventFrame {
				t.Fatalf("stream %d: frame decoded on noise at %d", s, ev.Anchor)
			}
		}
	}
}

// Every busy_air frame must decode, looped or not: a miss is a failed
// operation, and the workload is chosen to have none.
func TestBusyCorpusDecodes(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cp, err := genCorpus(seed, testCorpusSamples())
		if err != nil {
			t.Fatal(err)
		}
		res := newResult()
		sc := newFrameScorer(cp, res)
		rx, err := symbee.NewReceiver(symbee.Params20())
		if err != nil {
			t.Fatal(err)
		}
		score := func() {
			for _, ev := range rx.Drain() {
				if ev.Kind == symbee.EventFrame {
					sc.score(ev.Anchor, ev.Frame)
				}
			}
		}
		const passes = 2 // the second pass crosses the loop seam
		for p := 0; p < passes; p++ {
			for off := 0; off < len(cp.iq); off += chunkSamples {
				if err := rx.PushIQ(cp.iq[off : off+chunkSamples]); err != nil {
					t.Fatal(err)
				}
				score()
			}
		}
		rx.Flush()
		score()
		sc.finish(passes)
		if res.failed != 0 || len(res.wrong) != 0 {
			t.Fatalf("seed %d: %d of %d frames missed, wrong outputs %v", seed, res.failed, res.attempted, res.wrong)
		}
	}
}

// The scorer must flag frames that match nothing, carry the wrong
// payload, or arrive twice.
func TestFrameScorerFlagsWrongFrames(t *testing.T) {
	cp, err := genCorpus(1, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	f0 := cp.frames[0]
	res := newResult()
	sc := newFrameScorer(cp, res)
	if end := sc.score(f0.start+10, &f0.frame); end != f0.end {
		t.Fatalf("true frame scored %d, want end %d", end, f0.end)
	}
	if sc.score(f0.start+10, &f0.frame) >= 0 {
		t.Error("duplicate frame accepted")
	}
	if sc.score(f0.start-1, &f0.frame) >= 0 {
		t.Error("frame in a noise gap accepted")
	}
	bad := core.Frame{Seq: f0.frame.Seq + 1, Data: f0.frame.Data}
	if sc.score(cp.frames[1].start, &bad) >= 0 {
		t.Error("frame with a wrong payload accepted")
	}
	if len(res.wrong) != 3 {
		t.Errorf("recorded %d wrong outputs, want 3: %v", len(res.wrong), res.wrong)
	}
	sc.finish(1)
	if res.failed != len(cp.frames)-1 {
		t.Errorf("failed = %d, want %d", res.failed, len(cp.frames)-1)
	}
}

func TestCheckCrowdFlagsOverDelivery(t *testing.T) {
	res := newResult()
	checkCrowd(res, &medium.Report{Senders: 2, FramesPerSender: 2, Delivered: 4}, 1)
	if len(res.wrong) != 0 {
		t.Fatalf("full delivery flagged: %v", res.wrong)
	}
	checkCrowd(res, &medium.Report{Senders: 2, FramesPerSender: 2, Delivered: 5}, 1)
	if len(res.wrong) != 1 {
		t.Fatal("delivered > sent not flagged")
	}
}
