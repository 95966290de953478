package reliable

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/testutil"
)

// scriptTx is a Transport driven by a per-send outcome script:
// 'd' deliver and ack, 'l' lose the frame, 'a' deliver but lose every
// copy of the ack. Past the end of the script every send is 'd'. Acks
// ride a link.DownStack — ideal (zero-width, zero-latency) by
// default, so scripted tests reproduce the classic synchronous
// timeline through the async contract.
type scriptTx struct {
	script []byte
	i      int
	arq    *Receiver
	down   *link.DownStack
	coded  []bool // coding mode of each send, in order
}

func newScriptTx(script string) *scriptTx {
	return newScriptTxDownlink(script, 0, 0, 0, 1)
}

// newScriptTxDownlink scripts outcomes over a downlink stack with the
// given per-copy wall span, on-air time, turnaround and repeat count.
func newScriptTxDownlink(script string, wall, air, base time.Duration, repeat int) *scriptTx {
	down, err := link.NewDownStack(link.DownSpec{
		Timing: link.DownTiming{Wall: wall, Air: air, Base: base},
		Repeat: repeat,
	})
	if err != nil {
		panic(err)
	}
	return &scriptTx{
		script: []byte(script),
		arq:    NewReceiver(nil),
		down:   down,
	}
}

func (tx *scriptTx) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	op := byte('d')
	if tx.i < len(tx.script) {
		op = tx.script[tx.i]
	}
	tx.i++
	tx.coded = append(tx.coded, coded)
	at := FrameAirtime(len(f.Data), coded)
	end := now + at
	tx.down.Advance(end)
	switch op {
	case 'l':
		// Frame lost on the forward path: no delivery, no ack.
	case 'a':
		ack, _ := tx.arq.Deliver(f)
		tx.down.Generate(end, ack.NextSeq, true)
	default:
		ack, _ := tx.arq.Deliver(f)
		tx.down.Generate(end, ack.NextSeq, false)
	}
	return at, nil
}

func (tx *scriptTx) Acks(now time.Duration) []AckEvent {
	return ackEvents(tx.down.Arrivals(now))
}

func (tx *scriptTx) NextArrival(now time.Duration) (time.Duration, bool) {
	return tx.down.NextArrival(now)
}

func (tx *scriptTx) AckLatency() time.Duration { return tx.down.Latency() }

func (tx *scriptTx) message() []byte {
	msgs := tx.arq.Messages()
	if len(msgs) == 0 {
		return nil
	}
	return msgs[0]
}

// cfgSeed is DefaultConfig with just the jitter seed pinned.
func cfgSeed(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return cfg
}

func testMessage(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*7 + 3)
	}
	return msg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"zero rto", func(c *Config) { c.InitialRTO = 0 }},
		{"max below initial", func(c *Config) { c.MaxRTO = c.InitialRTO - 1 }},
		{"zero retries", func(c *Config) { c.MaxRetries = 0 }},
		{"negative escalate", func(c *Config) { c.EscalateAfter = -1 }},
		{"negative deescalate", func(c *Config) { c.DeescalateAfter = -1 }},
	}
	for _, tt := range cases {
		cfg := DefaultConfig()
		tt.mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: validated", tt.name)
		}
		if _, err := NewSession(newScriptTx(""), cfg); err == nil {
			t.Errorf("%s: NewSession accepted it", tt.name)
		}
	}
	if _, err := NewSession(nil, DefaultConfig()); err == nil {
		t.Error("NewSession accepted a nil transport")
	}
}

func TestSessionRTOFloorFromAckLatency(t *testing.T) {
	// A 37 ms + 1 ms downlink floors the default 20 ms RTO at 1.5× the
	// ack latency: any shorter timer would fire before an ack for the
	// first frame could possibly return.
	tx := newScriptTxDownlink("", 37*time.Millisecond, 9*time.Millisecond, time.Millisecond, 1)
	s, err := NewSession(tx, cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := 57 * time.Millisecond; s.cfg.InitialRTO != want {
		t.Errorf("InitialRTO = %v, want floored %v", s.cfg.InitialRTO, want)
	}
	if s.cfg.MaxRTO < 2*s.cfg.InitialRTO {
		t.Errorf("MaxRTO %v below 2× floored InitialRTO", s.cfg.MaxRTO)
	}
	// An ideal downlink leaves the config untouched.
	s2, err := NewSession(newScriptTx(""), cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if s2.cfg.InitialRTO != DefaultConfig().InitialRTO {
		t.Errorf("ideal downlink moved InitialRTO to %v", s2.cfg.InitialRTO)
	}
}

func TestCodedCapacityDerivation(t *testing.T) {
	room := core.MaxPayloadBits - core.PreambleBits
	fits := codedLen(core.HeaderBits + 8*MaxCodedDataBytes + core.CRCBits)
	if fits > room {
		t.Fatalf("coded frame of %d data bytes needs %d bits > %d available",
			MaxCodedDataBytes, fits, room)
	}
	next := codedLen(core.HeaderBits + 8*(MaxCodedDataBytes+1) + core.CRCBits)
	if next <= room {
		t.Fatalf("MaxCodedDataBytes too conservative: %d+1 bytes fit in %d bits", MaxCodedDataBytes, room)
	}
}

func TestCodedFrameRejectsOversize(t *testing.T) {
	_, err := CodedFrameBits(&core.Frame{Data: make([]byte, MaxCodedDataBytes+1)})
	if !errors.Is(err, core.ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

// A Hamming-coded frame survives the full PHY round trip, including a
// correctable bit error per codeword block.
func TestCodedFramePHYRoundtrip(t *testing.T) {
	link, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &core.Frame{Seq: 42, Flags: core.FlagMore, Data: []byte{0xDE, 0xAD, 0xBF}}
	bits, err := CodedFrameBits(want)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped bit in every 7-bit block: the worst correctable case.
	for i := 0; i < len(bits); i += 7 {
		bits[i+3] ^= 1
	}
	payload, err := core.EncodeBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := link.PayloadToSignal(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCodedPhases(link.Decoder(), link.Phases(sig))
	if err != nil {
		t.Fatalf("DecodeCodedPhases: %v", err)
	}
	if got.Seq != want.Seq || got.Flags != want.Flags || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// The plain decoder must reject the same capture fast (version
	// mismatch), or negotiation-free trial decoding would not work.
	if _, err := link.Decoder().DecodeFrame(link.Phases(sig)); err == nil {
		t.Fatal("plain decoder accepted a coded frame")
	}
}

func TestWindowAckArithmetic(t *testing.T) {
	w := &window{max: 4}
	for i := 0; i < 4; i++ {
		f := &core.Frame{Seq: byte(254 + i), Data: []byte{1, 2}} // wraps 254,255,0,1
		if err := w.offer(&segment{frame: f}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	if err := w.offer(&segment{frame: &core.Frame{}}); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("offer to full window: %v, want ErrWindowFull", err)
	}
	if rel, _ := w.ack(254); rel != 0 {
		t.Fatalf("stale ack released %d", rel)
	}
	rel, bts := w.ack(0) // across the wrap: releases 254,255
	if rel != 2 || bts != 4 {
		t.Fatalf("ack(0) released %d segs %d bytes, want 2 and 4", rel, bts)
	}
	rel, _ = w.ack(2) // catch-up to empty
	if rel != 2 || len(w.segs) != 0 {
		t.Fatalf("ack(2) released %d, window len %d", rel, len(w.segs))
	}
}

func TestReceiverDedup(t *testing.T) {
	m := link.NewMetrics()
	r := NewReceiver(m)
	ack, err := r.Deliver(&core.Frame{Seq: 0, Flags: core.FlagMore, Data: []byte{1}})
	if err != nil || ack.NextSeq != 1 {
		t.Fatalf("in-order deliver: ack %+v err %v", ack, err)
	}
	// Duplicate and future frames are both dropped with a repeated ack.
	for _, seq := range []byte{0, 2} {
		ack, _ = r.Deliver(&core.Frame{Seq: seq, Data: []byte{9}})
		if ack.NextSeq != 1 {
			t.Fatalf("seq %d: ack %d, want repeated 1", seq, ack.NextSeq)
		}
	}
	if r.DupDrops() != 2 || m.DupDrops.Load() != 2 {
		t.Fatalf("dup drops = %d / metric %d, want 2", r.DupDrops(), m.DupDrops.Load())
	}
	ack, _ = r.Deliver(&core.Frame{Seq: 1, Data: []byte{2}})
	if ack.NextSeq != 2 {
		t.Fatalf("ack %d, want 2", ack.NextSeq)
	}
	msgs := r.Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0], []byte{1, 2}) {
		t.Fatalf("messages = %v", msgs)
	}
}

func TestSessionCleanDelivery(t *testing.T) {
	tx := newScriptTx("")
	s, err := NewSession(tx, cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(95) // 9 full frames + one 5-byte tail
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tx.message(), msg) {
		t.Fatal("delivered message differs")
	}
	if rep.FramesSent != 10 || rep.Retransmits != 0 || rep.Timeouts != 0 {
		t.Fatalf("report %+v, want 10 clean frames", rep)
	}
	// Zero faults → ARQ forward airtime is exactly the fire-and-forget
	// baseline: the ≤5% overhead criterion holds with margin zero.
	if rep.Airtime != PlainAirtime(len(msg)) {
		t.Fatalf("airtime %v != plain baseline %v", rep.Airtime, PlainAirtime(len(msg)))
	}
	if rep.GoodputBps() <= 0 {
		t.Fatal("goodput not positive")
	}
}

func TestSessionRetransmitOnLoss(t *testing.T) {
	tx := newScriptTx("l") // first frame lost once, everything after clean
	m := link.NewMetrics()
	cfg := cfgSeed(1)
	cfg.Metrics = m
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(80)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tx.message(), msg) {
		t.Fatal("delivered message differs")
	}
	if rep.Retransmits == 0 {
		t.Fatal("loss produced no retransmit")
	}
	if rep.Timeouts != 0 {
		t.Fatalf("dup-ack recovery should not wait out timers, got %d timeouts", rep.Timeouts)
	}
	if m.Retransmits.Load() == 0 {
		t.Fatal("retransmits not counted in shared registry")
	}
}

func TestSessionAckLossRecovery(t *testing.T) {
	// The whole first flight delivers but every ack is lost: the sender
	// times out, retransmits, and the receiver's catch-up ack releases
	// the full window at once.
	tx := newScriptTx("aaaaaaaa")
	s, err := NewSession(tx, cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(80)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tx.message(), msg) {
		t.Fatal("delivered message differs")
	}
	if rep.Timeouts == 0 {
		t.Fatal("total ack loss must surface as a timeout")
	}
	if tx.arq.DupDrops() == 0 {
		t.Fatal("retransmitted flight should have been dup-dropped")
	}
}

func TestSessionTimeoutExhaustion(t *testing.T) {
	tx := newScriptTx("llllllllllllllllllllllllllllllllllllllllllllllllllllllll")
	clock := NewVirtualClock()
	cfg := cfgSeed(1)
	cfg.Window = 2
	cfg.MaxRetries = 3
	cfg.EscalateAfter = 0 // escalation disabled
	cfg.Clock = clock
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Send(context.Background(), testMessage(20))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rep.Timeouts == 0 {
		t.Fatal("no timeouts reported")
	}
	if clock.Now() == 0 {
		t.Fatal("virtual clock never advanced through the backoff")
	}
}

func TestSessionEscalatesAndDeescalates(t *testing.T) {
	// Window 2, EscalateAfter 2: two silent flights (4 losses) trigger
	// coded mode; the clean channel afterwards de-escalates after 2
	// progressing flights.
	tx := newScriptTx("llll")
	m := link.NewMetrics()
	cfg := cfgSeed(1)
	cfg.Window = 2
	cfg.EscalateAfter = 2
	cfg.DeescalateAfter = 2
	cfg.Metrics = m
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(60)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tx.message(), msg) {
		t.Fatal("delivered message differs")
	}
	if rep.Escalations != 1 || m.Escalations.Load() != 1 {
		t.Fatalf("escalations = %d, want 1", rep.Escalations)
	}
	if rep.Deescalations != 1 || m.Deescalations.Load() != 1 {
		t.Fatalf("deescalations = %d, want 1", rep.Deescalations)
	}
	var sawCoded, sawPlainAfterCoded bool
	for _, c := range tx.coded {
		if c {
			sawCoded = true
		} else if sawCoded {
			sawPlainAfterCoded = true
		}
	}
	if !sawCoded || !sawPlainAfterCoded {
		t.Fatalf("coding sequence %v never escalated and recovered", tx.coded)
	}
	if rep.Coded {
		t.Fatal("session should have ended in plain mode")
	}
}

// TestSessionEscalationResync is the regression for the
// re-fragmentation desync: frame 0 is delivered but both its acks are
// lost, so the sender's acked count (0) lags the receiver's expectation
// (1) when escalation re-cuts the message at the coded capacity.
// Without the resync probe the re-cut maps msg[0:3] onto seq 0, the
// receiver's duplicate ack for seq 1 releases that 3-byte segment in
// place of the 10 bytes it actually consumed, and the delivered message
// comes up 7 bytes short.
func TestSessionEscalationResync(t *testing.T) {
	// Window 1, EscalateAfter 2: 'a' delivers frame 0 but drops the
	// ack, its retransmission is dup-dropped with the ack lost again,
	// then the second silent flight escalates.
	tx := newScriptTx("aa")
	cfg := cfgSeed(1)
	cfg.Window = 1
	cfg.EscalateAfter = 2
	cfg.DeescalateAfter = 0 // coded mode sticky
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(20)
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tx.message(); !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d intact: resync before re-cut failed", len(got), len(msg))
	}
	if rep.Escalations != 1 {
		t.Fatalf("escalations = %d, want 1", rep.Escalations)
	}
	// The probe is the first coded send and must never be accepted as
	// data: the receiver drops it as out-of-order.
	if tx.arq.DupDrops() < 2 {
		t.Fatalf("dup drops = %d, want ≥2 (retransmit + resync probe)", tx.arq.DupDrops())
	}
}

func TestSessionStickyCodedMode(t *testing.T) {
	tx := newScriptTx("llll")
	cfg := cfgSeed(1)
	cfg.Window = 2
	cfg.EscalateAfter = 2
	cfg.DeescalateAfter = 0
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(context.Background(), testMessage(30)); err != nil {
		t.Fatal(err)
	}
	if !s.Coded() {
		t.Fatal("DeescalateAfter 0 must keep coded mode sticky")
	}
}

func TestSessionContextCancel(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSession(newScriptTx(""), cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Send(ctx, testMessage(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSessionEmptyMessage(t *testing.T) {
	s, err := NewSession(newScriptTx(""), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send(context.Background(), nil); !errors.Is(err, core.ErrEmptyMessage) {
		t.Fatalf("err = %v, want ErrEmptyMessage", err)
	}
}

func TestSessionDeterministicSchedule(t *testing.T) {
	run := func() *Report {
		tx := newScriptTx("lalal")
		s, err := NewSession(tx, cfgSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Send(context.Background(), testMessage(200))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSessionMultipleMessages(t *testing.T) {
	tx := newScriptTx("")
	s, err := NewSession(tx, cfgSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg := testMessage(25 + i)
		if _, err := s.Send(context.Background(), msg); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got := tx.message(); !bytes.Equal(got, msg) {
			t.Fatalf("message %d differs", i)
		}
	}
}

// lateTx delivers every frame and schedules its ack at a scripted
// per-send arrival delay after the frame ends — a downlink whose
// nominal latency is tiny but whose individual acks can straggle
// arbitrarily past the retransmission timer.
type lateTx struct {
	arq    *Receiver
	delays []time.Duration // ack arrival delay per send; past the end = 0
	i      int
	events []AckEvent
}

func (tx *lateTx) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	at := FrameAirtime(len(f.Data), coded)
	end := now + at
	ack, _ := tx.arq.Deliver(f)
	var d time.Duration
	if tx.i < len(tx.delays) {
		d = tx.delays[tx.i]
	}
	tx.i++
	tx.events = append(tx.events, AckEvent{Ack: ack, GeneratedAt: end, At: end + d})
	return at, nil
}

func (tx *lateTx) Acks(now time.Duration) []AckEvent {
	var out []AckEvent
	keep := tx.events[:0]
	for _, ev := range tx.events {
		if ev.At <= now {
			out = append(out, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	tx.events = keep
	return out
}

func (tx *lateTx) NextArrival(now time.Duration) (time.Duration, bool) {
	best := time.Duration(-1)
	for _, ev := range tx.events {
		if ev.At > now && (best < 0 || ev.At < best) {
			best = ev.At
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (tx *lateTx) AckLatency() time.Duration { return time.Millisecond }

// TestSessionLateAckAfterRTO: the first flight's acks straggle in 30 ms
// late, well past the ~20 ms RTO, so the sender has already gone back
// and retransmitted when they land. The late acks must still apply
// their cumulative releases, and their stale generation stamps must not
// read as fresh loss evidence — one timeout, the minimal go-back-N
// retransmissions, and an intact message delivered exactly once.
func TestSessionLateAckAfterRTO(t *testing.T) {
	tx := &lateTx{arq: NewReceiver(nil), delays: []time.Duration{
		30 * time.Millisecond, 30 * time.Millisecond,
		500 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond,
	}}
	cfg := cfgSeed(1)
	cfg.Window = 2
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(20) // 2 frames
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	msgs := tx.arq.Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatalf("late acks corrupted delivery: %d messages", len(msgs))
	}
	if rep.Timeouts != 1 {
		t.Errorf("timeouts = %d, want exactly the one RTO the late acks missed", rep.Timeouts)
	}
	// Flight 2 retransmits both frames before late ack #1 releases the
	// base; flight 3 retransmits the last frame before late ack #2
	// finishes the transfer. Anything above 3 means the stale acks were
	// misread as loss evidence.
	if rep.Retransmits != 3 {
		t.Errorf("retransmits = %d, want 3", rep.Retransmits)
	}
	if tx.arq.DupDrops() != 3 {
		t.Errorf("dup drops = %d, want 3", tx.arq.DupDrops())
	}
}

// TestSessionDuplicateDownlinkAcks: a Repeat-3 downlink delivers every
// ack three times. The duplicate copies carry stale generation stamps,
// so they must neither release anything twice nor read as loss
// evidence: zero retransmits, zero timeouts on a clean forward path.
func TestSessionDuplicateDownlinkAcks(t *testing.T) {
	tx := newScriptTxDownlink("", 2*time.Millisecond, 500*time.Microsecond, 500*time.Microsecond, 3)
	cfg := cfgSeed(1)
	cfg.Window = 1
	s, err := NewSession(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	msg := testMessage(20) // 2 frames
	rep, err := s.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	msgs := tx.arq.Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatalf("duplicate acks corrupted delivery: %d messages", len(msgs))
	}
	if rep.Retransmits != 0 || rep.Timeouts != 0 {
		t.Errorf("duplicate acks caused %d retransmits and %d timeouts, want none",
			rep.Retransmits, rep.Timeouts)
	}
	ledger := tx.down.Ledger()
	if got := ledger.AcksSent; got != 6 {
		t.Errorf("reverse channel sent %d copies, want 2 acks × 3 repeats", got)
	}
	if ledger.AcksDropped != 0 {
		t.Errorf("clean reverse path dropped %d copies", ledger.AcksDropped)
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	if err := c.Sleep(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now = %v", c.Now())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sleep: %v", err)
	}
	if c.Now() != 5*time.Second {
		t.Fatal("canceled sleep advanced the clock")
	}
}

func TestWallClockSleepCancel(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)()
	c := NewWallClock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sleep: %v", err)
	}
}
