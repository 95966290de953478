package reliable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"symbee/internal/link"
)

// soakRuns returns how many seeded runs each soak subtest executes.
// Tier-1 defaults to a fast deterministic subset; CI sets
// RELIABLE_SOAK_RUNS=100 for the full acceptance sweep (the bench's
// -reliable mode also replays all 100).
func soakRuns() int {
	if s := os.Getenv("RELIABLE_SOAK_RUNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10
}

func soakMessage(seed int64) []byte {
	msg := make([]byte, 4096)
	for i := range msg {
		msg[i] = byte(int64(i)*31 + seed*17 + 5)
	}
	return msg
}

// soakRun drives one 4 KiB transfer over the fault-injected PHY with the
// C-Morse ack downlink and returns the session report; it fails the test
// unless the message arrives intact.
func soakRun(t *testing.T, seed int64, streaming bool) *Report {
	t.Helper()
	m := link.NewMetrics()
	cfg := DefaultSimConfig()
	cfg.Faults = ProfileSoak(seed)
	cfg.Stream = streaming
	cfg.Metrics = m
	sl, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	scfg := DefaultConfig()
	scfg.Seed = seed
	scfg.Metrics = m
	s, err := NewSession(sl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := soakMessage(seed)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatalf("seed %d: %v (report %+v)", seed, err, rep)
	}
	msgs := sl.Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatalf("seed %d: message not delivered intact (%d messages)", seed, len(msgs))
	}
	if rs := sl.ReverseStats(); rs.AcksSent == 0 || rs.Airtime == 0 {
		t.Fatalf("seed %d: reverse channel never transmitted (%+v)", seed, rs)
	}
	return rep
}

// TestARQSoak is the acceptance soak: under 10% i.i.d. frame loss plus
// periodic burst interference plus ack loss, every seeded run must
// deliver the 4 KiB message intact over both receive paths — now with
// acks riding the modeled C-Morse downlink instead of a free side
// channel.
func TestARQSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	runs := soakRuns()
	for _, path := range []struct {
		name      string
		streaming bool
	}{{"batch", false}, {"stream", true}} {
		path := path
		t.Run(path.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(runs); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
					t.Parallel()
					rep := soakRun(t, seed, path.streaming)
					if rep.Retransmits == 0 {
						t.Errorf("seed %d: 10%% loss produced zero retransmits — faults not applied?", seed)
					}
				})
			}
		})
	}
}

// TestARQBidirectionalSoak is the bidirectional acceptance soak: 10%
// frame loss forward, 10% per-copy ack loss on the reverse path, with
// each ack repeated twice for loss protection. Every seeded run must
// survive late, duplicated, collided and missing acks and still deliver
// the 4 KiB message intact. CI nightly runs the full 100 seeds via
// RELIABLE_SOAK_RUNS.
func TestARQBidirectionalSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	runs := soakRuns()
	var dropped, collided int
	for seed := int64(0); seed < int64(runs); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			m := link.NewMetrics()
			cfg := DefaultSimConfig()
			cfg.Faults = ProfileBidir(seed)
			cfg.AckRepeat = 2
			cfg.Metrics = m
			sl, err := NewSimLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sl.Close()
			scfg := DefaultConfig()
			scfg.Seed = seed
			scfg.Metrics = m
			s, err := NewSession(sl, scfg)
			if err != nil {
				t.Fatal(err)
			}
			msg := soakMessage(seed)
			rep, err := s.Send(context.Background(), msg)
			if err != nil {
				t.Fatalf("seed %d: %v (report %+v)", seed, err, rep)
			}
			msgs := sl.Messages()
			if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
				t.Fatalf("seed %d: message not delivered intact (%d messages)", seed, len(msgs))
			}
			rs := sl.ReverseStats()
			if rs.AcksSent == 0 {
				t.Fatalf("seed %d: reverse channel idle", seed)
			}
			dropped += rs.AcksDropped
			collided += rs.AckCollisions + rs.ForwardCollisions
		})
	}
	if dropped == 0 {
		t.Error("10% reverse loss dropped zero ack copies across the sweep")
	}
	if collided == 0 {
		t.Error("no ack/forward collisions across the sweep")
	}
}

// With faults disabled and the ideal downlink the ARQ spends exactly
// the fire-and-forget airtime: the ≤5% overhead acceptance criterion,
// met with zero margin, on both receive paths. The ideal downlink is
// load-bearing here — under a latent downlink go-back-N inherently
// retransmits delivered-but-unacked frames, which is the honest cost
// the reliability table in the README now reports.
func TestARQOverheadCleanChannel(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		cfg := DefaultSimConfig()
		cfg.Downlink = DownlinkIdeal
		cfg.Stream = streaming
		sl, err := NewSimLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := DefaultConfig()
		scfg.Seed = 1
		s, err := NewSession(sl, scfg)
		if err != nil {
			t.Fatal(err)
		}
		msg := soakMessage(7)
		rep, err := s.Send(context.Background(), msg)
		if err != nil {
			t.Fatalf("stream=%v: %v", streaming, err)
		}
		if msgs := sl.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
			t.Fatalf("stream=%v: message not delivered", streaming)
		}
		baseline := PlainAirtime(len(msg))
		if rep.Airtime != baseline {
			t.Fatalf("stream=%v: airtime %v != baseline %v (overhead criterion)", streaming, rep.Airtime, baseline)
		}
		if rep.Retransmits != 0 || rep.Timeouts != 0 {
			t.Fatalf("stream=%v: clean channel produced %d retransmits %d timeouts",
				streaming, rep.Retransmits, rep.Timeouts)
		}
		sl.Close()
	}
}

// Under the harsh profile (drift ramps, heavier loss) the transfer must
// still complete; this is the path that exercises escalation against
// the real coded decoder.
func TestARQHarshProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	m := link.NewMetrics()
	cfg := DefaultSimConfig()
	cfg.Faults = ProfileHarsh(3)
	cfg.Metrics = m
	sl, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	scfg := DefaultConfig()
	scfg.Seed = 3
	scfg.Metrics = m
	s, err := NewSession(sl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := soakMessage(3)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatalf("%v (report %+v)", err, rep)
	}
	if msgs := sl.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatal("message not delivered intact")
	}
	lost, jammed, _ := sl.FaultStats()
	if lost == 0 || jammed == 0 {
		t.Fatalf("harsh profile exercised nothing: lost=%d jammed=%d", lost, jammed)
	}
}
