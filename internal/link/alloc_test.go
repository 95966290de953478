package link

import (
	"math/rand"
	"runtime"
	"testing"

	"symbee/internal/core"
	"symbee/internal/medium"
	"symbee/internal/wifi"
)

// TestStackSteadyStateZeroAlloc pins the refactor's hot-path guarantee
// at the Stack level (the stream package pins it again through its
// Receiver wrapper): once warm, pushing IQ and draining events on the
// hunting steady state allocates nothing, instrumented or not.
func TestStackSteadyStateZeroAlloc(t *testing.T) {
	p := core.Params20()
	rng := rand.New(rand.NewSource(55))
	noise := make([]complex128, 4096)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		metrics *Metrics
	}{
		{"uninstrumented", nil},
		{"instrumented", NewMetrics()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStreaming(dec, 1, tc.metrics)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				st.PushIQ(noise)
				st.Drain()
			}
			allocs := testing.AllocsPerRun(100, func() {
				st.PushIQ(noise)
				st.Drain()
			})
			if allocs != 0 {
				t.Errorf("steady-state PushIQ+Drain allocates %.1f times per chunk, want 0", allocs)
			}
		})
	}
}

// TestRunMediumAllocsPerFrame pins the medium engine's recycled
// synthesis buffers: once warm, a crowded run allocates less heap per
// admitted frame than half of one frame's complex128 waveform
// (AirtimeSamples × 8 bytes). Synthesis that allocated each waveform
// would cost at least one airtime (× 16 bytes) per frame.
func TestRunMediumAllocsPerFrame(t *testing.T) {
	cfg := medium.Defaults()
	cfg.Senders, cfg.FramesPerSender, cfg.Seed = 64, 4, 1
	cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, 10, 3
	if _, err := RunMedium(cfg, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := RunMedium(cfg, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	frames := rep.Senders * rep.FramesPerSender
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
	limit := float64(rep.AirtimeSamples * 8)
	t.Logf("%d frames, %.0f bytes allocated per frame (%.3f airtimes of complex128)",
		frames, perFrame, perFrame/float64(rep.AirtimeSamples*16))
	if perFrame >= limit {
		t.Errorf("RunMedium allocates %.0f bytes per admitted frame, want < %.0f (half an airtime of complex128)",
			perFrame, limit)
	}
}
