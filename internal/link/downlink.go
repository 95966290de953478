package link

import (
	"errors"
	"math/rand"
	"time"
)

// This file is the downlink half of the duplex link architecture: the
// serial WiFi→ZigBee reverse channel as a fixed chain of stages. A
// DownStack is discrete-event and clockless — callers push ack
// generations at forward-frame delivery instants and pull arrivals with
// explicit `now` stamps — so it composes with both virtual and wall
// clocks, exactly like the reverse-channel model it replaces. The
// stages, bottom to top:
//
//	coalescer       ack serializer: one pending slot, newer cumulative
//	                acks replace a queued unstarted older one
//	occupancy       per-copy wall/air quanta and the serial transmitter's
//	                busy horizon (DownTiming; all zero for the ideal
//	                downlink)
//	reverseFault    per-copy loss draws and the half-duplex forward/ack
//	                collision model
//
// Arrivals land in a reused queue the owner reads through Arrivals; the
// cross-stage ack ledger, which the reliability layer publishes through
// SimLink.ReverseStats, is assembled by Ledger.

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

// downCopy is one committed reverse-channel transmission of an ack.
type downCopy struct {
	seq        byte
	gen        time.Duration // when the receiver generated the ack
	start, end time.Duration // reverse-channel occupancy span
	dropped    bool          // lost (reverse fault or collision): never arrives
}

// pendingTimed is the newest cumulative ack queued behind the serial
// reverse transmitter, not yet started. A newer ack generated before it
// starts replaces it — cumulative acks make the older one redundant.
type pendingTimed struct {
	seq   byte
	gen   time.Duration
	start time.Duration
	drop  bool // scripted loss for this ack's copies (tests)
}

// coalescer is the ack serializer stage: it owns the single pending
// slot of the serial reverse transmitter.
type coalescer struct {
	pending   *pendingTimed
	coalesced int
}

// put queues p, replacing (and counting) a still-pending older ack.
func (c *coalescer) put(p pendingTimed) {
	if c.pending != nil {
		c.coalesced++
	}
	c.pending = &p
}

// take commits the pending ack once simulated time reaches its start
// instant, clearing the slot.
func (c *coalescer) take(now time.Duration) *pendingTimed {
	p := c.pending
	if p == nil || p.start > now {
		return nil
	}
	c.pending = nil
	return p
}

// occupancy is the busy-queue stage: it owns the per-copy quanta and
// the serial transmitter's busy horizon. The ideal downlink is this
// stage with all quanta zero: acks start the instant they are generated
// (or the previous one is committed), cost no air and hold the channel
// for no time.
type occupancy struct {
	wall, air, base time.Duration
	repeat          int
	busyUntil       time.Duration
	sent            int // copies put on the air
}

// startFor schedules an ack generated at gen: after the turnaround, or
// when the transmitter frees up, whichever is later.
func (o *occupancy) startFor(gen time.Duration) time.Duration {
	start := gen + o.base
	if o.busyUntil > start {
		start = o.busyUntil
	}
	return start
}

// commit accounts one ack's copies starting at start and advances the
// busy horizon past them.
func (o *occupancy) commit(start time.Duration) {
	o.sent += o.repeat
	o.busyUntil = start + time.Duration(o.repeat)*o.wall
}

// reverseFault is the per-copy loss + half-duplex collision stage: it
// owns the in-flight copies, draws their reverse loss on admission and
// resolves collisions with forward frames.
type reverseFault struct {
	dropCopy func() bool
	collide  *rand.Rand
	wall     time.Duration
	duty     float64

	inFlight                                  []downCopy
	dropped, ackCollisions, forwardCollisions int
}

// admit puts one committed copy in flight, drawing its reverse loss.
// forceDrop short-circuits the draw (scripted loss consumes no RNG).
func (f *reverseFault) admit(c downCopy, forceDrop bool) {
	if forceDrop || (f.dropCopy != nil && f.dropCopy()) {
		c.dropped = true
		f.dropped++
	}
	f.inFlight = append(f.inFlight, c)
}

// collideForward resolves the half-duplex interaction between a forward
// frame on the air over [start, end] and every in-flight copy whose
// span overlaps it. The reverse transmitter radiates air/wall (duty) of
// an ack span, so the forward frame is destroyed with probability duty
// per overlapping copy; the forward frame radiates continuously, so the
// copy is destroyed with probability overlap/wall (the fraction of its
// span the frame covers). Both draws come from the collision stream and
// are consumed for every overlapping pair, killed or not, so one
// outcome never shifts the next pair's draw. It reports whether the
// forward frame was destroyed. A zero-wall (ideal) downlink draws
// nothing.
func (f *reverseFault) collideForward(start, end time.Duration) bool {
	if f.collide == nil || f.wall <= 0 {
		return false
	}
	killed := false
	for i := range f.inFlight {
		c := &f.inFlight[i]
		lo, hi := c.start, c.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi <= lo {
			continue
		}
		fwdDraw := f.collide.Float64()
		copyDraw := f.collide.Float64()
		if fwdDraw < f.duty {
			if !killed {
				f.forwardCollisions++
			}
			killed = true
		}
		if copyDraw < float64(hi-lo)/float64(c.end-c.start) && !c.dropped {
			c.dropped = true
			f.ackCollisions++
		}
	}
	return killed
}

// drain appends to out every copy that has fully arrived by now, in
// arrival order, skipping destroyed ones, and keeps the rest in flight.
func (f *reverseFault) drain(now time.Duration, out []TimedEvent) []TimedEvent {
	keep := f.inFlight[:0]
	for _, c := range f.inFlight {
		if c.end > now {
			keep = append(keep, c)
			continue
		}
		if c.dropped {
			continue
		}
		out = append(out, TimedEvent{Seq: c.seq, Gen: c.gen, At: c.end})
	}
	f.inFlight = keep
	return out
}

// nextEnd reports the earliest surviving in-flight arrival after now.
func (f *reverseFault) nextEnd(now time.Duration) (time.Duration, bool) {
	best := time.Duration(-1)
	for _, c := range f.inFlight {
		if c.dropped || c.end <= now {
			continue
		}
		if best < 0 || c.end < best {
			best = c.end
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// DownlinkLedger is the cross-stage ack accounting of a DownStack; the
// reliability layer's SimLink.ReverseStats returns it as is.
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
// time, and time must be monotone across calls.
type DownStack struct {
	coal    coalescer
	occ     occupancy
	fault   reverseFault
	arrived []TimedEvent
}

// NewDownStack assembles the downlink stack described by spec.
func NewDownStack(spec DownSpec) (*DownStack, error) {
	if spec.Repeat < 1 {
		return nil, ErrDownRepeat
	}
	t := spec.Timing
	s := &DownStack{
		occ:   occupancy{wall: t.Wall, air: t.Air, base: t.Base, repeat: spec.Repeat},
		fault: reverseFault{dropCopy: spec.DropCopy, collide: spec.Collide, wall: t.Wall},
	}
	if t.Wall > 0 {
		s.fault.duty = float64(t.Air) / float64(t.Wall)
	}
	return s, nil
}

// Advance commits the pending ack once simulated time reaches its start
// instant: its copies are scheduled serially through the occupancy
// stage, each drawing its reverse loss in the fault stage, and the
// transmitter is busy until the last one ends. Callers invoke it with
// every observed `now` (Generate, Arrivals and NextArrival do so
// themselves), so commitment order follows simulated time regardless of
// which accessor runs first.
func (s *DownStack) Advance(now time.Duration) {
	p := s.coal.take(now)
	if p == nil {
		return
	}
	wall := s.occ.wall
	for k := 0; k < s.occ.repeat; k++ {
		s.fault.admit(downCopy{
			seq:   p.seq,
			gen:   p.gen,
			start: p.start + time.Duration(k)*wall,
			end:   p.start + time.Duration(k+1)*wall,
		}, p.drop)
	}
	s.occ.commit(p.start)
}

// Generate hands a cumulative ack to the downlink at time gen (the
// forward frame's delivery instant). The copy starts after the
// turnaround, or when the serial transmitter frees up, whichever is
// later; a still-queued older ack is coalesced away. drop forces every
// copy of this ack to be lost (scripted tests; simulated links draw
// per-copy through DropCopy instead).
func (s *DownStack) Generate(gen time.Duration, seq byte, drop bool) {
	s.Advance(gen)
	s.coal.put(pendingTimed{seq: seq, gen: gen, start: s.occ.startFor(gen), drop: drop})
}

// CollideForward resolves a forward frame on the air over [start, end]
// against every in-flight ack copy (see reverseFault.collideForward)
// and reports whether the frame was destroyed. Callers must Advance(end)
// first so copies starting mid-frame participate — Duplex.ForwardCollides
// does both.
func (s *DownStack) CollideForward(start, end time.Duration) bool {
	return s.fault.collideForward(start, end)
}

// Arrivals drains every ack that has fully arrived by now, in arrival
// order. The returned slice is the stack's reused queue: valid until
// the next drain; consumers that buffer across drains must copy the
// elements out.
func (s *DownStack) Arrivals(now time.Duration) []TimedEvent {
	s.Advance(now)
	s.arrived = s.fault.drain(now, s.arrived[:0])
	return s.arrived
}

// NextArrival reports when the next ack will finish arriving, if any is
// scheduled: the earliest surviving in-flight copy, or the queued
// pending ack's first copy. Copies already destroyed never arrive and
// are skipped — the sender cannot know, which is exactly why it also
// keeps a retransmission timer.
func (s *DownStack) NextArrival(now time.Duration) (time.Duration, bool) {
	s.Advance(now)
	best, ok := s.fault.nextEnd(now)
	if p := s.coal.pending; p != nil && !p.drop {
		if first := p.start + s.occ.wall; !ok || first < best {
			best, ok = first, true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}

// Latency is the nominal one-way ack delay on an idle reverse channel:
// turnaround plus one copy's span (the ack decodes when its last symbol
// lands).
func (s *DownStack) Latency() time.Duration {
	return s.occ.base + s.occ.wall
}

// Ledger assembles the cross-stage ack accounting.
func (s *DownStack) Ledger() DownlinkLedger {
	return DownlinkLedger{
		AcksSent:          s.occ.sent,
		AcksCoalesced:     s.coal.coalesced,
		AcksDropped:       s.fault.dropped,
		AckCollisions:     s.fault.ackCollisions,
		ForwardCollisions: s.fault.forwardCollisions,
		Airtime:           time.Duration(s.occ.sent) * s.occ.air,
	}
}
