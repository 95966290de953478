package link

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// TestMediumLinkEquivalenceOddChunk re-pins equivalence at an awkward
// chunk size (the render window and receive chunk are the same knob in
// the engine; neither may shift the outcome).
func TestMediumLinkEquivalenceOddChunk(t *testing.T) {
	cfg := medium.Defaults()
	cfg.Senders = 4
	cfg.FramesPerSender = 3
	cfg.Seed = 17
	cfg.MeanGapAirtimes = 1
	cfg.CFOJitterHz, cfg.GainSpreadDB = 15e3, 2
	cfg.ChunkSamples = 1009 // prime, never aligned with airtime
	want, err := referenceMultiSender(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runComparable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("odd chunk: engine report differs from dense reference:\nengine:    %+v\nreference: %+v",
			got, want)
	}
}

// testMediumCaptureEquivalence compares the capture the engine renders
// chunk by chunk with the dense reference's superposed capture, bit
// pattern by bit pattern: a sign-flipped zero would change the phase
// atan2 reports (+π against −π), so value equality is not enough. The
// engine synthesizes into recycled buffers; any sample left over from
// an earlier frame shows up here even when it does not change a
// decode.
func testMediumCaptureEquivalence(t *testing.T) {
	for _, n := range []int{1, 8} {
		for _, sfo := range []float64{0, 10, 40} {
			for _, chunk := range []int{4096, 1009} {
				cfg := medium.Defaults()
				cfg.Senders = n
				cfg.FramesPerSender = 4
				cfg.Seed = 3
				cfg.MeanGapAirtimes = 1.5
				cfg.CFOJitterHz, cfg.SFOppm, cfg.GainSpreadDB = 20e3, sfo, 3
				cfg.ChunkSamples = chunk
				phy, err := core.NewLink(cfg.Params, 0)
				if err != nil {
					t.Fatal(err)
				}
				txs, err := refBuildSchedules(cfg, phy)
				if err != nil {
					t.Fatal(err)
				}
				want := refSuperpose(cfg, cfg.Params, txs)
				eng, err := medium.NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var rec recordingSink
				if _, err := eng.Run(&rec); err != nil {
					t.Fatal(err)
				}
				if len(rec.capture) != len(want) {
					t.Fatalf("N=%d sfo=%v chunk=%d: capture has %d samples, reference %d",
						n, sfo, chunk, len(rec.capture), len(want))
				}
				for i, v := range rec.capture {
					w := want[i]
					if math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
						t.Fatalf("N=%d sfo=%v chunk=%d: sample %d = %v, reference %v",
							n, sfo, chunk, i, v, w)
					}
				}
			}
		}
	}
}

// recordingSink keeps every chunk the engine renders (the engine
// reuses its chunk buffer, so the samples are copied out).
type recordingSink struct {
	capture []complex128
}

func (s *recordingSink) PushChunk(iq []complex128) error {
	s.capture = append(s.capture, iq...)
	return nil
}

func (s *recordingSink) Flush() error { return nil }

// runComparable runs cfg through RunMedium and clears the engine's
// memory accounting, the only report fields the dense reference has no
// counterpart for.
func runComparable(cfg medium.Config) (*medium.Report, error) {
	rep, err := RunMedium(cfg, nil)
	if err != nil {
		return nil, err
	}
	rep.PeakOverlap, rep.PeakWindowSamples = 0, 0
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
