package stream

import (
	"math/rand"
	"testing"

	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/wifi"
)

// TestSteadyStateZeroAlloc is the zero-alloc guarantee of the sustained
// ingest path: once a stack is warm (scratch grown, machine history
// at its retention bound), pushing IQ and draining events on the
// idle-listening/hunting steady state allocates nothing — instrumented
// or not. This is the state a live receiver spends almost all its time
// in at 20 Msps, so any per-chunk allocation here is a GC treadmill.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := core.Params20()
	rng := rand.New(rand.NewSource(55))
	noise := make([]complex128, 4096)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, tc := range []struct {
		name    string
		metrics *link.Metrics
	}{
		{"uninstrumented", nil},
		{"instrumented", link.NewMetrics()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStack(t, p, wifi.CanonicalCompensation, tc.metrics)
			// Warm-up: grow every ring, scratch and retained-history
			// buffer to steady state on the exact chunk we will measure.
			for i := 0; i < 50; i++ {
				r.PushIQ(noise)
				r.Drain()
			}
			allocs := testing.AllocsPerRun(100, func() {
				r.PushIQ(noise)
				r.Drain()
			})
			if allocs != 0 {
				t.Errorf("steady-state PushIQ+Drain allocates %.1f times per chunk, want 0", allocs)
			}
		})
	}
}

// TestFrameReplayAllocBudget bounds the allocation cost of the frame
// path: replaying a frame-bearing capture, everything except the
// decoded Frame itself (which escapes to the consumer) comes from
// reused buffers — scanner rings, bit scratch, event queues. The budget
// is the frame materialization (Frame + Data + two bit→byte scratch
// slices inside ParseFrameBits), with one spare for the retry path.
func TestFrameReplayAllocBudget(t *testing.T) {
	p := core.Params20()
	iq := benchCapture(t, p)
	r := newStack(t, p, wifi.CanonicalCompensation, nil)
	const chunk = 4096
	replay := func() (frames int) {
		for off := 0; off < len(iq); off += chunk {
			end := off + chunk
			if end > len(iq) {
				end = len(iq)
			}
			r.PushIQ(iq[off:end])
			for _, ev := range r.Drain() {
				if ev.Kind == core.EventFrame {
					frames++
				}
			}
		}
		return frames
	}
	// Warm-up replays: grow buffers and verify the capture decodes.
	warmFrames := 0
	for i := 0; i < 3; i++ {
		warmFrames = replay()
	}
	if warmFrames == 0 {
		t.Fatal("warm-up replay decoded no frames")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if replay() == 0 {
			t.Fatal("replay decoded no frames")
		}
	})
	const perFrameBudget = 8
	if allocs > float64(warmFrames*perFrameBudget) {
		t.Errorf("frame replay allocates %.1f times per capture (%d frames), budget %d",
			allocs, warmFrames, warmFrames*perFrameBudget)
	}
	t.Logf("frame replay: %.1f allocs per capture, %d frames", allocs, warmFrames)
}
