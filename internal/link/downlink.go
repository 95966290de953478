package link

import (
	"errors"
	"math/rand"
	"time"
)

// This file is the downlink half of the duplex link architecture: the
// serial WiFi→ZigBee reverse channel as one discrete-event model. A
// DownStack is clockless — callers push ack generations at
// forward-frame delivery instants and pull arrivals with explicit `now`
// stamps — so it composes with both virtual and wall clocks, exactly
// like the reverse-channel model it replaces. It holds one pending-ack
// slot (a newer cumulative ack replaces a queued, unstarted older one),
// the serial transmitter's busy horizon, the copies in flight with
// their loss and collision outcomes, a reused arrival queue the owner
// reads through Arrivals, and the ack ledger the reliability layer
// publishes through SimLink.ReverseStats.

// DownTiming is a downlink's per-copy occupancy: the wall-clock span
// one ack copy holds the reverse channel, the on-air time within it,
// and the fixed turnaround before the first copy can start. The zero
// value is the ideal downlink — acks are instant, free and
// collision-less.
type DownTiming struct {
	Wall, Air, Base time.Duration
}

// DownSpec assembles a DownStack.
type DownSpec struct {
	// Timing is the per-copy occupancy (zero = the ideal downlink).
	Timing DownTiming
	// Repeat transmits each committed ack this many times (≥ 1).
	Repeat int
	// DropCopy is the per-copy reverse loss draw (nil = lossless).
	DropCopy func() bool
	// Collide draws the half-duplex collision outcomes (nil = never
	// collides). Callers seed it from their collision RNG stream.
	Collide *rand.Rand
}

// ErrDownRepeat reports a non-positive ack repetition count.
var ErrDownRepeat = errors.New("link: DownSpec.Repeat must be at least 1")

// TimedEvent is one cumulative acknowledgment arriving on the reverse
// channel, stamped with its generation and arrival instants on the
// shared virtual clock. Where Event carries what was decoded,
// TimedEvent carries when.
type TimedEvent struct {
	// Seq is the cumulative next-expected sequence number.
	Seq byte
	// Gen is when the ack was generated on the link clock — the end of
	// the forward frame that triggered it. It stands in for the token a
	// real downlink would carry, and lets the consumer tell a fresh ack
	// from a stale one that spent its latency in flight.
	Gen time.Duration
	// At is when the ack finished arriving (its last reverse-channel
	// symbol landed).
	At time.Duration
}

// downCopy is one reverse-channel transmission of an ack: a committed
// copy in flight, or the pending ack's first copy while it waits for
// the transmitter.
type downCopy struct {
	seq        byte
	gen        time.Duration // when the receiver generated the ack
	start, end time.Duration // reverse-channel occupancy span
	dropped    bool          // lost (reverse fault or collision): never arrives
}

// DownlinkLedger is the ack accounting of a DownStack; the reliability
// layer's SimLink.ReverseStats returns it as is.
type DownlinkLedger struct {
	// AcksSent counts committed ack copies put on the air.
	AcksSent int
	// AcksCoalesced counts acks superseded by a newer cumulative ack
	// before their transmission started.
	AcksCoalesced int
	// AcksDropped counts copies lost on the reverse path.
	AcksDropped int
	// AckCollisions counts copies destroyed by an overlapping forward
	// frame.
	AckCollisions int
	// ForwardCollisions counts forward frames destroyed by an
	// overlapping ack burst.
	ForwardCollisions int
	// Airtime is the reverse on-air time spent.
	Airtime time.Duration
}

// DownStack is the downlink half of a duplex link: the discrete-event
// model of a serial ack reverse channel. Like Stack it is owned by one
// goroutine; callers stamp every method with the current simulated
// time, and time must be monotone across calls. The ideal downlink is
// the same model with all timing quanta zero: acks start the instant
// they are generated, cost no air and hold the channel for no time.
type DownStack struct {
	timing   DownTiming
	repeat   int
	dropCopy func() bool
	collide  *rand.Rand
	duty     float64 // Air/Wall: the chance an ack span is radiating

	// pending is the newest ack queued behind the serial transmitter,
	// not yet started (valid while queued); its dropped flag is the
	// scripted loss of all its copies.
	pending   downCopy
	queued    bool
	busyUntil time.Duration // when the last committed copy ends
	inFlight  []downCopy
	arrived   []TimedEvent
	ledger    DownlinkLedger
}

// NewDownStack assembles the downlink stack described by spec.
func NewDownStack(spec DownSpec) (*DownStack, error) {
	if spec.Repeat < 1 {
		return nil, ErrDownRepeat
	}
	s := &DownStack{
		timing:   spec.Timing,
		repeat:   spec.Repeat,
		dropCopy: spec.DropCopy,
		collide:  spec.Collide,
	}
	if t := spec.Timing; t.Wall > 0 {
		s.duty = float64(t.Air) / float64(t.Wall)
	}
	return s, nil
}

// Advance commits the pending ack once simulated time reaches its start
// instant: its copies go on the air back to back, each drawing its
// reverse loss (a scripted loss consumes no draw), and the transmitter
// is busy until the last one ends. Callers invoke it with every
// observed `now` (Generate, Arrivals and NextArrival do so themselves),
// so commitment order follows simulated time regardless of which
// accessor runs first.
func (s *DownStack) Advance(now time.Duration) {
	p := s.pending
	if !s.queued || p.start > now {
		return
	}
	s.queued = false
	wall := s.timing.Wall
	for k := 0; k < s.repeat; k++ {
		c := p
		c.start = p.start + time.Duration(k)*wall
		c.end = c.start + wall
		if p.dropped || (s.dropCopy != nil && s.dropCopy()) {
			c.dropped = true
			s.ledger.AcksDropped++
		}
		s.inFlight = append(s.inFlight, c)
	}
	s.ledger.AcksSent += s.repeat
	s.ledger.Airtime = time.Duration(s.ledger.AcksSent) * s.timing.Air
	s.busyUntil = p.start + time.Duration(s.repeat)*wall
}

// Generate hands a cumulative ack to the downlink at time gen (the
// forward frame's delivery instant). The copy starts after the
// turnaround, or when the serial transmitter frees up, whichever is
// later; a still-queued older ack is coalesced away. drop forces every
// copy of this ack to be lost (scripted tests; simulated links draw
// per-copy through DropCopy instead).
func (s *DownStack) Generate(gen time.Duration, seq byte, drop bool) {
	s.Advance(gen)
	start := max(gen+s.timing.Base, s.busyUntil)
	if s.queued {
		s.ledger.AcksCoalesced++
	}
	s.pending = downCopy{seq: seq, gen: gen, start: start, end: start + s.timing.Wall, dropped: drop}
	s.queued = true
}

// CollideForward resolves the half-duplex interaction between a forward
// frame on the air over [start, end] and every in-flight ack copy whose
// span overlaps it, and reports whether the frame was destroyed. The
// reverse transmitter radiates air/wall (duty) of an ack span, so the
// forward frame is destroyed with probability duty per overlapping
// copy; the forward frame radiates continuously, so the copy is
// destroyed with probability overlap/wall (the fraction of its span the
// frame covers). Both draws come from the collision stream and are
// consumed for every overlapping pair, killed or not, so one outcome
// never shifts the next pair's draw. A zero-wall (ideal) downlink draws
// nothing. Callers must Advance(end) first so copies starting mid-frame
// participate — Duplex.ForwardCollides does both.
func (s *DownStack) CollideForward(start, end time.Duration) bool {
	if s.collide == nil || s.timing.Wall <= 0 {
		return false
	}
	killed := false
	for i := range s.inFlight {
		c := &s.inFlight[i]
		lo, hi := max(c.start, start), min(c.end, end)
		if hi <= lo {
			continue
		}
		fwdDraw := s.collide.Float64()
		copyDraw := s.collide.Float64()
		if fwdDraw < s.duty {
			if !killed {
				s.ledger.ForwardCollisions++
			}
			killed = true
		}
		if copyDraw < float64(hi-lo)/float64(c.end-c.start) && !c.dropped {
			c.dropped = true
			s.ledger.AckCollisions++
		}
	}
	return killed
}

// Arrivals drains every ack that has fully arrived by now, in arrival
// order, skipping destroyed copies. The returned slice is the stack's
// reused queue: valid until the next drain; consumers that buffer
// across drains must copy the elements out.
func (s *DownStack) Arrivals(now time.Duration) []TimedEvent {
	s.Advance(now)
	s.arrived = s.arrived[:0]
	keep := s.inFlight[:0]
	for _, c := range s.inFlight {
		switch {
		case c.end > now:
			keep = append(keep, c)
		case !c.dropped:
			s.arrived = append(s.arrived, TimedEvent{Seq: c.seq, Gen: c.gen, At: c.end})
		}
	}
	s.inFlight = keep
	return s.arrived
}

// NextArrival reports when the next ack will finish arriving, if any is
// scheduled: the earliest surviving in-flight copy, or the queued
// pending ack's first copy. Copies already destroyed never arrive and
// are skipped — the sender cannot know, which is exactly why it also
// keeps a retransmission timer.
func (s *DownStack) NextArrival(now time.Duration) (time.Duration, bool) {
	s.Advance(now)
	best, ok := time.Duration(0), false
	for _, c := range s.inFlight {
		if !c.dropped && c.end > now && (!ok || c.end < best) {
			best, ok = c.end, true
		}
	}
	if p := s.pending; s.queued && !p.dropped && (!ok || p.end < best) {
		best, ok = p.end, true
	}
	return best, ok
}

// Latency is the nominal one-way ack delay on an idle reverse channel:
// turnaround plus one copy's span (the ack decodes when its last symbol
// lands).
func (s *DownStack) Latency() time.Duration {
	return s.timing.Base + s.timing.Wall
}

// Ledger reports the ack accounting so far.
func (s *DownStack) Ledger() DownlinkLedger { return s.ledger }
