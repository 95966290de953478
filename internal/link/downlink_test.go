package link

import (
	"errors"
	"testing"
	"time"

	"symbee/internal/core"
	"symbee/internal/splitmix"
)

// fixedDown builds a DownStack with explicit quanta — the white-box
// tests state timing exactly instead of resolving a ctc point.
func fixedDown(t *testing.T, wall, air, base time.Duration, repeat int) *DownStack {
	t.Helper()
	s, err := NewDownStack(DownSpec{
		Timing: DownTiming{Wall: wall, Air: air, Base: base},
		Repeat: repeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDownSpecValidation(t *testing.T) {
	if _, err := NewDownStack(DownSpec{}); !errors.Is(err, ErrDownRepeat) {
		t.Errorf("zero Repeat: %v, want ErrDownRepeat", err)
	}
	if _, err := NewDownStack(DownSpec{Repeat: -1}); !errors.Is(err, ErrDownRepeat) {
		t.Errorf("negative Repeat: %v, want ErrDownRepeat", err)
	}
	// The zero DownTiming is the ideal downlink (zero quanta).
	s, err := NewDownStack(DownSpec{Repeat: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Latency() != 0 {
		t.Errorf("ideal latency = %v", s.Latency())
	}
}

func TestDownStackSerialAndCoalescing(t *testing.T) {
	// Serial transmitter with a 10 ms wall: an ack generated while the
	// previous one is on the air queues behind it; a third ack generated
	// before the queued one starts replaces it (cumulative coalescing).
	s := fixedDown(t, 10*time.Millisecond, 2*time.Millisecond, time.Millisecond, 1)
	s.Generate(0, 1, false)                  // starts at 1ms, ends 11ms
	s.Generate(2*time.Millisecond, 2, false) // queued: starts 11ms
	s.Generate(4*time.Millisecond, 3, false) // replaces seq 2
	evs := s.Arrivals(11 * time.Millisecond)
	if len(evs) != 1 || evs[0].Seq != 1 || evs[0].At != 11*time.Millisecond {
		t.Fatalf("first drain = %+v", evs)
	}
	evs = s.Arrivals(21 * time.Millisecond)
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("second drain = %+v, want the coalesced seq 3", evs)
	}
	if evs[0].At != 21*time.Millisecond {
		t.Errorf("queued ack arrived at %v, want serialized 21ms", evs[0].At)
	}
	led := s.Ledger()
	if led.AcksCoalesced != 1 {
		t.Errorf("coalesced = %d, want 1", led.AcksCoalesced)
	}
	if led.AcksSent != 2 {
		t.Errorf("sent = %d, want 2 (seq 2 never aired)", led.AcksSent)
	}
	if want := 2 * 2 * time.Millisecond; led.Airtime != want {
		t.Errorf("reverse airtime = %v, want %v", led.Airtime, want)
	}
}

func TestDownStackNextArrival(t *testing.T) {
	s := fixedDown(t, 10*time.Millisecond, 0, time.Millisecond, 2)
	if _, ok := s.NextArrival(0); ok {
		t.Fatal("idle channel reported an arrival")
	}
	s.Generate(0, 1, false)
	next, ok := s.NextArrival(0)
	if !ok || next != 11*time.Millisecond {
		t.Fatalf("next = %v %v, want first copy at 11ms", next, ok)
	}
	// After the first copy lands, the repeat copy is next.
	s.Arrivals(11 * time.Millisecond)
	next, ok = s.NextArrival(11 * time.Millisecond)
	if !ok || next != 21*time.Millisecond {
		t.Fatalf("next = %v %v, want repeat copy at 21ms", next, ok)
	}
	// A fully dropped ack never arrives.
	s2 := fixedDown(t, 10*time.Millisecond, 0, 0, 1)
	s2.Generate(0, 1, true)
	if _, ok := s2.NextArrival(0); ok {
		t.Fatal("dropped ack reported as arriving")
	}
}

func TestDownStackCollisionModel(t *testing.T) {
	const trials = 4000
	run := func(seed int64, overlapFrac float64) (fwd, ack int) {
		s, err := NewDownStack(DownSpec{
			Timing:  DownTiming{Wall: 10 * time.Millisecond, Air: 5 * time.Millisecond},
			Repeat:  1,
			Collide: splitmix.New(seed, splitmix.CollisionStream),
		})
		if err != nil {
			t.Fatal(err)
		}
		span := time.Duration(overlapFrac * float64(10*time.Millisecond))
		for i := 0; i < trials; i++ {
			s.inFlight = []downCopy{{start: 0, end: 10 * time.Millisecond}}
			s.CollideForward(0, span)
		}
		led := s.Ledger()
		return led.ForwardCollisions, led.AckCollisions
	}
	// Full overlap: the copy is always destroyed; the forward frame dies
	// at the 50% duty cross-section.
	fwd, ack := run(7, 1)
	if ack != trials {
		t.Errorf("full overlap destroyed %d/%d copies", ack, trials)
	}
	if fwd < trials*45/100 || fwd > trials*55/100 {
		t.Errorf("forward kills = %d/%d, want ≈50%%", fwd, trials)
	}
	// 20% overlap: the copy survives ~80% of the time; the forward
	// frame's cross-section is unchanged (duty, not overlap).
	_, ack = run(8, 0.2)
	if ack < trials*15/100 || ack > trials*25/100 {
		t.Errorf("partial-overlap copy kills = %d/%d, want ≈20%%", ack, trials)
	}
	// Same seed, same schedule: the collision stream is deterministic.
	f1, a1 := run(9, 0.5)
	f2, a2 := run(9, 0.5)
	if f1 != f2 || a1 != a2 {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", f1, a1, f2, a2)
	}
}

// TestDownStackIdealNoOp pins the ideal downlink (zero quanta): instant
// turnaround, zero airtime, and — critically — no collision draws, so
// an ideal baseline can never perturb a shared RNG stream.
func TestDownStackIdealNoOp(t *testing.T) {
	collide := splitmix.New(1, splitmix.CollisionStream)
	probe := splitmix.New(1, splitmix.CollisionStream)
	s, err := NewDownStack(DownSpec{Repeat: 1, Collide: collide})
	if err != nil {
		t.Fatal(err)
	}
	s.Generate(5*time.Millisecond, 9, false)
	if s.CollideForward(0, time.Second) {
		t.Error("ideal downlink killed a forward frame")
	}
	evs := s.Arrivals(5 * time.Millisecond)
	if len(evs) != 1 || evs[0].At != 5*time.Millisecond || evs[0].Gen != 5*time.Millisecond {
		t.Fatalf("ideal arrival = %+v, want instant delivery", evs)
	}
	if led := s.Ledger(); led.Airtime != 0 || led.AcksSent != 1 {
		t.Errorf("ideal ledger = %+v", led)
	}
	// The collision stream must be untouched: the next draw equals a
	// fresh stream's first draw.
	if collide.Float64() != probe.Float64() {
		t.Error("ideal downlink consumed a collision draw")
	}
}

// TestDownStackLayerStats checks the ledger's accounting
// across a small scripted run: one coalesced ack, one lossy copy.
func TestDownStackLayerStats(t *testing.T) {
	drops := []bool{true, false, false}
	i := 0
	s, err := NewDownStack(DownSpec{
		Timing:   DownTiming{Wall: 10 * time.Millisecond, Air: 2 * time.Millisecond},
		Repeat:   1,
		DropCopy: func() bool { d := drops[i%len(drops)]; i++; return d },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Generate(0, 1, false)                  // copy 1: dropped by DropCopy
	s.Generate(1*time.Millisecond, 2, false) // queued
	s.Generate(2*time.Millisecond, 3, false) // coalesces seq 2 away
	evs := s.Arrivals(30 * time.Millisecond)
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Errorf("arrivals = %+v, want one seq 3 ack", evs)
	}
	led := s.Ledger()
	if led.AcksCoalesced != 1 || led.AcksSent != 2 || led.AcksDropped != 1 {
		t.Errorf("ledger = %+v, want coalesced 1, sent 2, dropped 1", led)
	}
}

func TestDuplexComposer(t *testing.T) {
	if _, err := NewDuplex(nil, nil); !errors.Is(err, ErrNilUplink) {
		t.Errorf("nil uplink: %v", err)
	}
	dec, err := core.NewDecoder(core.Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewBatch(dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDuplex(up, nil); !errors.Is(err, ErrNilDownlink) {
		t.Errorf("nil downlink: %v", err)
	}
	down, err := NewDownStack(DownSpec{
		Timing:  DownTiming{Wall: 10 * time.Millisecond, Air: 5 * time.Millisecond},
		Repeat:  1,
		Collide: splitmix.New(3, splitmix.CollisionStream),
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDuplex(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if d.Up() != up || d.Down() != down {
		t.Fatal("duplex lost a half")
	}
	// ForwardCollides must advance the downlink first: an ack generated
	// before the frame but starting mid-frame participates in the draw.
	d.Down().Generate(0, 1, false)
	killed := false
	for i := 0; i < 200 && !killed; i++ {
		killed = d.ForwardCollides(0, 10*time.Millisecond)
	}
	if !killed {
		t.Error("no forward kill in 200 draws at 50% duty")
	}
}
