package reliable

import (
	"bytes"
	"context"
	"testing"
	"time"

	"symbee/internal/channel"
	"symbee/internal/link"
	"symbee/internal/splitmix"
)

// TestDownlinkSchemeTable pins each scheme's name and resolved ack
// timing to the quanta of its published operating point with one-byte
// acks and a 1 ms turnaround.
func TestDownlinkSchemeTable(t *testing.T) {
	schemes := DownlinkSchemes()
	if len(schemes) != 5 {
		t.Fatalf("schemes = %v, want ideal + 4 modeled operating points", schemes)
	}
	want := map[DownlinkScheme]struct {
		name   string
		timing link.DownTiming
	}{
		DownlinkIdeal:   {"ideal", link.DownTiming{}},
		DownlinkCMorse:  {"cmorse", link.DownTiming{Wall: 37_216_000, Air: 9_216_000, Base: 1_000_000}},
		DownlinkFreeBee: {"freebee", link.DownTiming{Wall: 512_000_000, Air: 2_880_000, Base: 1_000_000}},
		DownlinkDCTC:    {"dctc", link.DownTiming{Wall: 19_000_000, Air: 5_000_000, Base: 1_000_000}},
		DownlinkEMF:     {"emf", link.DownTiming{Wall: 20_000_000, Air: 3_456_000, Base: 1_000_000}},
	}
	for _, d := range schemes {
		if d.String() != want[d].name {
			t.Errorf("scheme %d named %q, want %q", d, d.String(), want[d].name)
		}
		if d.Modeled() != (d != DownlinkIdeal) {
			t.Errorf("%s: Modeled = %v", d, d.Modeled())
		}
		timing, err := d.timing()
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if timing != want[d].timing {
			t.Errorf("%s: timing %+v, want %+v", d, timing, want[d].timing)
		}
	}
	if _, err := DownlinkScheme(99).timing(); err == nil {
		t.Error("unknown scheme accepted")
	}
	if DownlinkScheme(99).String() != "unknown" || DownlinkScheme(99).Modeled() {
		t.Error("unknown scheme named or modeled")
	}
}

func TestDownlinkSchemeOperatingPoints(t *testing.T) {
	duty := func(d DownlinkScheme) (wall time.Duration, duty float64) {
		timing, err := d.timing()
		if err != nil {
			t.Fatal(err)
		}
		return timing.Wall, float64(timing.Air) / float64(timing.Wall)
	}
	// FreeBee acks are far slower but far lower duty than C-Morse.
	cw, cd := duty(DownlinkCMorse)
	fw, fd := duty(DownlinkFreeBee)
	if fw <= cw {
		t.Errorf("FreeBee wall %v should exceed C-Morse wall %v", fw, cw)
	}
	if fd >= cd {
		t.Error("FreeBee duty should be below C-Morse duty")
	}
	// DCTC is the fastest modeled point; EMF sits at C-Morse-class
	// latency with a smaller collision cross-section.
	dw, _ := duty(DownlinkDCTC)
	ew, ed := duty(DownlinkEMF)
	if dw >= cw || dw >= ew {
		t.Errorf("DCTC wall %v should undercut C-Morse %v and EMF %v", dw, cw, ew)
	}
	if ed >= cd {
		t.Error("EMF duty should be below C-Morse duty")
	}
}

// TestSimLinkDownlinkLatency pins the Transport-level latency of each
// modeled scheme to its ctc operating point through the downlink stack.
func TestSimLinkDownlinkLatency(t *testing.T) {
	for _, d := range DownlinkSchemes() {
		cfg := DefaultSimConfig()
		cfg.Downlink = d
		l, err := NewSimLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lat := l.AckLatency()
		l.Close()
		if d == DownlinkIdeal {
			if lat != 0 {
				t.Errorf("ideal latency = %v", lat)
			}
			continue
		}
		timing, err := d.timing()
		if err != nil {
			t.Fatal(err)
		}
		if want := timing.Wall + timing.Base; lat != want {
			t.Errorf("%s latency = %v, want %v", d, lat, want)
		}
	}
}

// TestSimLinkReverseCollisions drives a full transfer over the C-Morse
// downlink with no injected faults: every loss in the run is a genuine
// half-duplex collision between forward frames and ack bursts, and the
// session must still deliver through them.
func TestSimLinkReverseCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("PHY soak skipped in -short mode")
	}
	run := func() (*Report, link.DownlinkLedger) {
		cfg := DefaultSimConfig()
		cfg.Faults = channel.FaultConfig{Seed: 5}
		m := link.NewMetrics()
		cfg.Metrics = m
		sl, err := NewSimLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sl.Close()
		scfg := cfgSeed(5)
		scfg.Metrics = m
		s, err := NewSession(sl, scfg)
		if err != nil {
			t.Fatal(err)
		}
		msg := testMessage(1000)
		rep, err := s.Send(context.Background(), msg)
		if err != nil {
			t.Fatalf("%v (report %+v)", err, rep)
		}
		if msgs := sl.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
			t.Fatal("message not delivered intact through collisions")
		}
		return rep, sl.ReverseStats()
	}
	rep, stats := run()
	if stats.AcksSent == 0 || stats.Airtime == 0 {
		t.Fatalf("reverse channel idle: %+v", stats)
	}
	if stats.ForwardCollisions+stats.AckCollisions == 0 {
		t.Errorf("no collisions at 25%% ack duty with a busy forward pipe: %+v", stats)
	}
	if stats.ForwardCollisions > 0 && rep.Retransmits == 0 {
		t.Error("forward frames died in collisions but nothing was retransmitted")
	}
	rep2, stats2 := run()
	if *rep != *rep2 || stats != stats2 {
		t.Errorf("same seed diverged:\n%+v %+v\n%+v %+v", rep, stats, rep2, stats2)
	}
}

// TestSimLinkLayerStats checks the duplex's reverse ledger over a full
// C-Morse transfer: acks go out, and the airtime is exactly one
// C-Morse ack's air per copy sent.
func TestSimLinkLayerStats(t *testing.T) {
	cfg := DefaultSimConfig()
	if cfg.Downlink != DownlinkCMorse {
		t.Fatalf("default downlink %v, want cmorse", cfg.Downlink)
	}
	l, err := NewSimLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := NewSession(l, cfgSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(context.Background(), testMessage(100)); err != nil {
		t.Fatal(err)
	}
	timing, err := DownlinkCMorse.timing()
	if err != nil {
		t.Fatal(err)
	}
	air := timing.Air
	led := l.ReverseStats()
	if led.AcksSent == 0 {
		t.Fatalf("no acks sent over a full transfer: %+v", led)
	}
	if want := time.Duration(led.AcksSent) * air; led.Airtime != want {
		t.Errorf("airtime %v, want %d copies × %v = %v", led.Airtime, led.AcksSent, air, want)
	}
}

func TestSimConfigValidate(t *testing.T) {
	if err := DefaultSimConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultSimConfig()
	bad.AckRepeat = 0
	if bad.Validate() == nil {
		t.Error("AckRepeat 0 validated")
	}
	bad = DefaultSimConfig()
	bad.Downlink = DownlinkScheme(99)
	if bad.Validate() == nil {
		t.Error("unknown downlink validated")
	}
	bad = DefaultSimConfig()
	bad.Params.BitPeriod = 0
	if bad.Validate() == nil {
		t.Error("zero Params validated")
	}
	if _, err := NewSimLink(SimConfig{}); err == nil {
		t.Error("NewSimLink accepted the zero config")
	}
}

// FuzzDownStack drives the ack downlink of every modeled scheme, at
// Repeat 1–3 with seeded loss and collision streams, through an
// arbitrary monotone schedule and checks the invariants the session
// relies on: no ack arrives sooner than Latency after it was generated,
// cumulative acks never regress, copies never overlap on the serial
// transmitter, NextArrival never reports an instant already past, and
// after a final drain the ledger adds up.
//
// ops is read in triples [kind step arg]. step advances the clock by
// step/16 of the scheme's ack latency (1/16 ms on the ideal downlink).
// kind%4 picks Generate (arg%3 is the sequence increment, arg bit 7
// scripts the loss of the ack's copies), Advance + CollideForward over
// a forward frame arg/16 latencies long, Arrivals or NextArrival.
func FuzzDownStack(f *testing.F) {
	ops := []byte{
		0, 0, 1, 0, 4, 1, 1, 2, 40, 0, 3, 2, 2, 40, 0, 3, 0, 0,
		0, 1, 129, 1, 8, 30, 0, 2, 1, 2, 60, 0, 3, 1, 0, 2, 9, 0,
	}
	for _, d := range DownlinkSchemes() {
		f.Add(uint8(d), uint8(d), int64(d), uint8(20), ops)
	}
	f.Fuzz(func(t *testing.T, scheme, repeat uint8, seed int64, lossPct uint8, ops []byte) {
		if len(ops) > 3*512 {
			return
		}
		d := DownlinkScheme(int(scheme) % len(downlinkTable))
		tm, err := d.timing()
		if err != nil {
			t.Fatal(err)
		}
		r := 1 + int(repeat%3)
		loss := float64(lossPct%101) / 100
		drops := splitmix.New(seed, splitmix.ReverseStream)
		s, err := d.newDownStack(r, func() bool { return drops.Float64() < loss },
			splitmix.New(seed, splitmix.CollisionStream))
		if err != nil {
			t.Fatal(err)
		}
		lat := s.Latency()
		unit := lat / 16
		if unit == 0 {
			unit = time.Millisecond / 16
		}

		var (
			now       time.Duration
			seq       byte
			generated int
			last      link.TimedEvent
			seen      bool
		)
		check := func(evs []link.TimedEvent) {
			for _, ev := range evs {
				if ev.At > now || ev.At < ev.Gen+lat {
					t.Fatalf("%s: ack %+v drained at %v, latency %v", d, ev, now, lat)
				}
				if seen {
					if ev.Seq < last.Seq {
						t.Fatalf("%s: cumulative ack regressed: %+v after %+v", d, ev, last)
					}
					if gap := ev.At - last.At; gap < 0 || (gap > 0 && gap < tm.Wall) {
						t.Fatalf("%s: arrivals %v and %v closer than one %v copy", d, last.At, ev.At, tm.Wall)
					}
				}
				last, seen = ev, true
			}
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			kind, step, arg := ops[i]%4, ops[i+1], ops[i+2]
			now += time.Duration(step) * unit
			switch kind {
			case 0:
				seq = byte(min(255, int(seq)+int(arg%3)))
				s.Generate(now, seq, arg&0x80 != 0)
				generated++
			case 1:
				end := now + time.Duration(arg)*unit
				s.Advance(end)
				s.CollideForward(now, end)
				now = end
			case 2:
				check(s.Arrivals(now))
			case 3:
				if at, ok := s.NextArrival(now); ok && at <= now {
					t.Fatalf("%s: NextArrival(%v) = %v, already past", d, now, at)
				}
			}
		}
		// A queued ack starts by now + Base + Repeat×Wall and its copies
		// end Repeat×Wall later: past that, everything has arrived.
		now += tm.Base + 2*time.Duration(r)*tm.Wall
		check(s.Arrivals(now))
		if at, ok := s.NextArrival(now); ok {
			t.Fatalf("%s: arrival at %v after the final drain", d, at)
		}
		led := s.Ledger()
		if led.AcksSent != r*(generated-led.AcksCoalesced) {
			t.Fatalf("%s: %d copies sent, want %d × (%d generated − %d coalesced)",
				d, led.AcksSent, r, generated, led.AcksCoalesced)
		}
		if led.AcksDropped+led.AckCollisions > led.AcksSent {
			t.Fatalf("%s: ledger lost more copies than it sent: %+v", d, led)
		}
		if led.Airtime != time.Duration(led.AcksSent)*tm.Air {
			t.Fatalf("%s: reverse airtime %v, want %d × %v", d, led.Airtime, led.AcksSent, tm.Air)
		}
	})
}
