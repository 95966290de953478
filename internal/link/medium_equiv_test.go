package link

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"symbee/internal/medium"
)

// TestMediumLinkEquivalence pins the event-driven engine against the
// dense reference: for every room-scale width the lazily-synthesized
// capture must decode into an identical report — same schedule, same
// collisions, same per-sender delivery, bit-for-bit (the engine
// reproduces the reference's RNG draw order and per-sample addition
// order, so this is exact equality, not statistical agreement).
func TestMediumLinkEquivalence(t *testing.T) {
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
