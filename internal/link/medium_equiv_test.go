package link

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"symbee/internal/core"
	"symbee/internal/medium"
)

// TestMediumLinkEquivalence pins the event-driven engine against the
// dense reference: for every room-scale width the lazily-synthesized
// capture must decode into an identical report — same schedule, same
// collisions, same per-sender delivery, bit-for-bit (the engine
// reproduces the reference's RNG draw order and per-sample addition
// order, so this is exact equality, not statistical agreement). The
// rendered capture itself is pinned too, sample by sample.
func TestMediumLinkEquivalence(t *testing.T) {
	t.Run("capture", testMediumCaptureEquivalence)
	for _, n := range []int{1, 2, 4, 8} {
		cfg := medium.Defaults()
		cfg.Senders = n
		cfg.FramesPerSender = 4
		cfg.Seed = 3
		cfg.MeanGapAirtimes = 1.5
		cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, 10, 3
		want, err := referenceMultiSender(cfg)
		if err != nil {
			t.Fatalf("N=%d reference: %v", n, err)
		}
		got, err := runComparable(cfg)
		if err != nil {
			t.Fatalf("N=%d engine: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("N=%d: engine report differs from dense reference:\nengine:    %+v\nreference: %+v",
				n, got, want)
		}
	}
}

// testMediumCaptureEquivalence compares the capture the engine renders
// chunk by chunk with the dense reference's superposed capture, bit
// pattern by bit pattern: a sign-flipped zero would change the phase
// atan2 reports (+π against −π), so value equality is not enough. The
// engine renders each transmission's stretch of every chunk on demand,
// carrying the CFO rotator across chunks; a stretch rendered from the
// wrong source samples, or a rotator carried wrongly, shows up here even
// when it does not change a decode. 2e5 ppm makes a chunk's source
// stretch longer than the chunk (clock ratios up to 1.2) and gives
// fast-clock frames a resampler zero tail of thousands of samples.
// Every capture is rendered at GOMAXPROCS 1, 2, 3 and 7: the engine
// splits each render window into one part per core, and a part that
// starts inside a frame pre-steps its rotator, so a part boundary
// placed anywhere must leave every bit unchanged.
func testMediumCaptureEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 8} {
		for _, sfo := range []float64{0, 10, 40, 2e5} {
			cfg := medium.Defaults()
			cfg.Senders = n
			cfg.FramesPerSender = 4
			cfg.Seed = 3
			cfg.MeanGapAirtimes = 1.5
			cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, sfo, 3
			phy, err := core.NewLink(cfg.Params, 0)
			if err != nil {
				t.Fatal(err)
			}
			txs, err := refBuildSchedules(cfg, phy)
			if err != nil {
				t.Fatal(err)
			}
			want := refSuperpose(cfg, cfg.Params, txs)
			rec := recordingSink{capture: make([]complex128, 0, len(want))}
			for _, procs := range []int{1, 2, 3, 7} {
				runtime.GOMAXPROCS(procs)
				eng, err := medium.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rec.capture = rec.capture[:0]
				if _, err := eng.Run(&rec); err != nil {
					t.Fatal(err)
				}
				if len(rec.capture) != len(want) {
					t.Fatalf("N=%d sfo=%v procs=%d: capture has %d samples, reference %d",
						n, sfo, procs, len(rec.capture), len(want))
				}
				for i, v := range rec.capture {
					w := want[i]
					if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
						t.Fatalf("N=%d sfo=%v procs=%d: sample %d = %v, reference %v",
							n, sfo, procs, i, v, w)
					}
				}
			}
		}
	}
}

// recordingSink keeps every chunk the engine renders (the engine
// reuses its render window, so the samples are copied out).
type recordingSink struct {
	capture []complex128
}

func (s *recordingSink) PushChunk(iq []complex128) error {
	s.capture = append(s.capture, iq...)
	return nil
}

func (s *recordingSink) Flush() error { return nil }

// runComparable runs cfg through RunMedium and clears the engine's
// memory accounting, the only report field the dense reference has no
// counterpart for.
func runComparable(cfg medium.Config) (*medium.Report, error) {
	rep, err := RunMedium(cfg, nil)
	if err != nil {
		return nil, err
	}
	rep.PeakOverlap = 0
	return rep, nil
}

// TestMediumDensityDeterminism pins the density-sweep seed contract at
// a population the dense reference cannot reach: two N=256 runs with
// equal seeds must serialize to byte-identical JSON (the property the
// committed BENCH_density.json rows rely on).
func TestMediumDensityDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("N=256 sweep row in -short mode")
	}
	row := func() []byte {
		cfg := medium.Defaults()
		cfg.Senders = 256
		cfg.FramesPerSender = 1
		cfg.Seed = 1
		cfg.MeanGapAirtimes = 2
		cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, 10, 3
		rep, err := RunMedium(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := row(), row()
	if !bytes.Equal(a, b) {
		t.Errorf("equal seeds produced different density rows:\n%s\n%s", a, b)
	}
}

// TestRunMediumRejectsInvalidConfig checks RunMedium returns the
// config's validation error, instead of running, for scenarios no
// sender can realize: an SFO spread of 1e6 ppm or more lets a sender
// draw a clock that stops or runs backwards (at 3e6 ppm, 4 senders,
// seed 1 one does, outside channel.ApplySFO's domain), a NaN spread
// would pass for no impairment, and a non-finite gap or SNR has no
// schedule or noise level to run.
func TestRunMediumRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*medium.Config)
	}{
		{"sfo 3e6", func(c *medium.Config) { c.SFOppm = 3e6 }},
		{"nan sfo", func(c *medium.Config) { c.SFOppm = math.NaN() }},
		{"nan cfo", func(c *medium.Config) { c.CFOJitterHz = math.NaN() }},
		{"inf gap", func(c *medium.Config) { c.MeanGapAirtimes = math.Inf(1) }},
		{"nan snr", func(c *medium.Config) { c.SNRdB = math.NaN() }},
	} {
		cfg := medium.Defaults()
		cfg.Senders, cfg.FramesPerSender, cfg.Seed = 4, 1, 1
		tc.mutate(&cfg)
		want := cfg.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted the config", tc.name)
		}
		rep, err := RunMedium(cfg, nil)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: RunMedium = %+v, %v; want the validation error %v", tc.name, rep, err, want)
		}
	}
}

// TestMediumWideIdentity checks sender identities above 255 round-trip
// through the payload high byte (Data[2]) and land on the right
// per-sender rows — populations beyond a byte are the engine's reason
// to exist.
func TestMediumWideIdentity(t *testing.T) {
	cfg := medium.Defaults()
	cfg.Senders = 300
	cfg.FramesPerSender = 1
	cfg.Seed = 5
	cfg.MeanGapAirtimes = 40 // sparse: most frames should survive
	rep, err := RunMedium(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("nothing delivered in the sparse wide-identity scenario")
	}
	// Sender 256 aliases sender 0 in the low byte; only the high byte
	// separates them. If any high-identity sender delivered, the wide
	// matching worked.
	wide := 0
	for _, st := range rep.PerSender[256:] {
		wide += st.Delivered
	}
	if wide == 0 {
		t.Error("no sender above 255 delivered; wide identity matching broken")
	}
}
