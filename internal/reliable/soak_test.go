package reliable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
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
func soakRun(t *testing.T, seed int64) *Report {
	t.Helper()
	m := link.NewMetrics()
	cfg := DefaultSimConfig()
	cfg.Faults = ProfileSoak(seed)
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
	if rs.AcksSent == 0 || rs.Airtime == 0 {
		t.Fatalf("seed %d: reverse channel never transmitted (%+v)", seed, rs)
	}
	if seed < int64(len(soakPins)) {
		checkOutcome(t, rep, rs, soakPins[seed])
	}
	return rep
}

// arqOutcome is what one seeded transfer did: the session report's
// counters and the downlink ledger.
type arqOutcome struct {
	frames, retransmits, timeouts, escalations, deescalations int
	airtime, elapsed                                          time.Duration

	acksSent, acksCoalesced, acksDropped, ackCollisions, forwardCollisions int
	reverseAirtime                                                         time.Duration
}

// Pinned outcomes of the first soak seeds: TestARQSoak's batch group
// (ProfileSoak), TestARQBidirectionalSoak (ProfileBidir, Repeat-2 acks)
// and TestARQHarshProfile. Every one of these transfers escalates and
// de-escalates, so besides the flight loop and the downlink they pin
// the resync probe and the coding-mode switch. A refactor of the
// session or the downlink must reproduce them exactly.
var (
	soakPins = [...]arqOutcome{
		{1701, 1248, 13, 2, 2, 7142398404, 14322577036, 349, 734, 17, 112, 385, 3216384000},
		{1841, 1382, 15, 2, 2, 7739902249, 16691230681, 390, 772, 28, 130, 400, 3594240000},
		{1605, 1174, 17, 1, 1, 6757118444, 13793566894, 333, 683, 21, 111, 341, 3068928000},
	}
	bidirPins = [...]arqOutcome{
		{2172, 1624, 53, 6, 6, 9046078155, 22077424412, 566, 1043, 52, 153, 559, 5216256000},
		{2355, 1692, 66, 10, 10, 9711998214, 26697002732, 642, 1104, 66, 170, 594, 5916672000},
		{2345, 1752, 48, 7, 7, 9743550039, 24547764433, 618, 1139, 54, 158, 554, 5695488000},
	}
	harshPin = arqOutcome{2237, 1670, 52, 7, 7, 9303358102, 21166051453, 465, 812, 51, 132, 431, 4285440000}
)

// checkOutcome compares a transfer's report and ledger with its pin.
func checkOutcome(t *testing.T, rep *Report, led link.DownlinkLedger, want arqOutcome) {
	t.Helper()
	got := arqOutcome{
		rep.FramesSent, rep.Retransmits, rep.Timeouts, rep.Escalations, rep.Deescalations,
		rep.Airtime, rep.Elapsed,
		led.AcksSent, led.AcksCoalesced, led.AcksDropped, led.AckCollisions, led.ForwardCollisions,
		led.Airtime,
	}
	if got != want {
		t.Errorf("transfer outcome changed:\n got %+v\nwant %+v", got, want)
	}
}

// The streaming replay sends streamFrames frames per seed and pushes IQ
// in streamChunk-sample chunks, as a live receiver would get it.
const (
	streamFrames = 200
	streamChunk  = 4096
)

// streamSoakRun replays a seed's soak traffic as IQ through one
// streaming stack and requires it to decode, capture by capture, exactly
// the frames the batch stack SimLink receives with decodes. The traffic
// is what a session puts on the air: plain MaxDataBytes fragments and,
// one in three, Hamming-coded MaxCodedDataBytes fragments (a plain
// receiver locks on those and fails), through ProfileSoak's loss and
// burst jamming. Captures follow each other back to back, separated by
// zero IQ long enough to force the previous capture's pending decode.
// Only frames are compared: after a frame the streaming machine also
// hunts the ZigBee FCS and the gap behind it, where it can lock and
// fail, while the batch capture ends first.
func streamSoakRun(t *testing.T, seed int64) {
	t.Helper()
	phy, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := channel.NewFaultInjector(ProfileSoak(seed))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := link.NewBatch(phy.Decoder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := link.NewStreaming(phy.Decoder(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := phy.Decoder().Params()
	gap := make([]complex128, core.DecodeGateSpan(p)+12*p.BitPeriod+p.Lag)
	push := func(iq []complex128) {
		for len(iq) > 0 {
			n := min(len(iq), streamChunk)
			if err := stream.PushIQ(iq[:n]); err != nil {
				t.Fatal(err)
			}
			iq = iq[n:]
		}
	}
	msg := soakMessage(seed)
	frames := func(events []link.Event) []core.Frame {
		var out []core.Frame
		for _, ev := range events {
			if ev.Kind == core.EventFrame {
				out = append(out, *ev.Frame)
			}
		}
		return out
	}
	var captures, decoded int
	for i := 0; i < streamFrames; i++ {
		f := &core.Frame{Seq: byte(i)}
		var payload []byte
		if i%3 == 2 {
			f.Data = msg[i : i+MaxCodedDataBytes]
			payload, err = EncodeCodedFrame(f)
		} else {
			f.Data = msg[i : i+core.MaxDataBytes]
			payload, err = core.EncodeFrame(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		sig, err := phy.PayloadToSignal(payload)
		if err != nil {
			t.Fatal(err)
		}
		capture, ok := inj.Apply(sig)
		if !ok {
			continue
		}
		captures++
		batch.Reset()
		if err := batch.PushPhases(phy.Phases(capture)); err != nil {
			t.Fatal(err)
		}
		batch.Flush()
		want := frames(batch.Drain())
		decoded += len(want)
		push(capture)
		push(gap)
		if got := frames(stream.Drain()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d frame %d: streaming stack decoded %+v, batch stack %+v", seed, i, got, want)
		}
	}
	// Both outcomes must occur: decoded frames, and captures the plain
	// decoder locks on but cannot read (coded or jammed frames).
	if decoded == 0 || decoded == captures {
		t.Fatalf("seed %d: %d of %d captures decoded; the replay is vacuous", seed, decoded, captures)
	}
}

// TestARQSoak is the acceptance soak under 10% i.i.d. frame loss plus
// periodic burst interference plus ack loss. In the batch group every
// seeded run must deliver the 4 KiB message intact over SimLink, with
// acks riding the modeled C-Morse downlink. In the stream group each
// seed's soak traffic runs as IQ through the streaming stack, which
// must decode exactly the frames the batch stack does (streamSoakRun).
func TestARQSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	runs := soakRuns()
	group := func(name string, run func(*testing.T, int64)) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < int64(runs); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
					t.Parallel()
					run(t, seed)
				})
			}
		})
	}
	group("batch", func(t *testing.T, seed int64) {
		if rep := soakRun(t, seed); rep.Retransmits == 0 {
			t.Errorf("seed %d: 10%% loss produced zero retransmits — faults not applied?", seed)
		}
	})
	group("stream", streamSoakRun)
}

// TestARQBidirectionalSoak is the bidirectional acceptance soak: 10%
// frame loss forward, 10% per-copy ack loss on the reverse path, with
// each ack repeated twice for loss protection. Every seeded run must
// survive late, duplicated, collided and missing acks and still deliver
// the 4 KiB message intact. CI nightly runs the full 100 seeds via
// RELIABLE_SOAK_RUNS. The seeds run in parallel; the sweep-wide sums
// are checked in a cleanup, which runs once every seed has returned.
func TestARQBidirectionalSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	runs := soakRuns()
	var (
		mu                sync.Mutex
		dropped, collided int
	)
	t.Cleanup(func() {
		if dropped == 0 {
			t.Error("10% reverse loss dropped zero ack copies across the sweep")
		}
		if collided == 0 {
			t.Error("no ack/forward collisions across the sweep")
		}
	})
	for seed := int64(0); seed < int64(runs); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
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
			if seed < int64(len(bidirPins)) {
				checkOutcome(t, rep, rs, bidirPins[seed])
			}
			mu.Lock()
			dropped += rs.AcksDropped
			collided += rs.AckCollisions + rs.ForwardCollisions
			mu.Unlock()
		})
	}
}

// With faults disabled and the ideal downlink the ARQ spends exactly
// the fire-and-forget airtime: the ≤5% overhead acceptance criterion,
// met with zero margin. The ideal downlink is load-bearing here — under
// a latent downlink go-back-N inherently retransmits
// delivered-but-unacked frames, which is the honest cost the
// reliability table in the README now reports.
func TestARQOverheadCleanChannel(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Downlink = DownlinkIdeal
	sl, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	scfg := DefaultConfig()
	scfg.Seed = 1
	s, err := NewSession(sl, scfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := soakMessage(7)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := sl.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatal("message not delivered")
	}
	baseline := PlainAirtime(len(msg))
	if rep.Airtime != baseline {
		t.Fatalf("airtime %v != baseline %v (overhead criterion)", rep.Airtime, baseline)
	}
	if rep.Retransmits != 0 || rep.Timeouts != 0 {
		t.Fatalf("clean channel produced %d retransmits %d timeouts", rep.Retransmits, rep.Timeouts)
	}
}

// profileHarsh piles CFO drift ramps and heavier loss on top of the
// soak profile — the regime that forces escalation.
func profileHarsh(seed int64) channel.FaultConfig {
	return channel.FaultConfig{
		Seed:       seed,
		FrameLoss:  0.15,
		BurstEvery: 48,
		BurstLen:   8,
		BurstSNRdB: -20,
		DriftEvery: 16,
		DriftRate:  4e-7,
		AckLoss:    0.10,
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
	cfg.Faults = profileHarsh(3)
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
	checkOutcome(t, rep, sl.ReverseStats(), harshPin)
}
