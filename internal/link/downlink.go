package link

import (
	"errors"
	"math/rand"
	"time"

	"symbee/internal/ctc"
)

// This file is the downlink half of the duplex link architecture: the
// serial WiFi→ZigBee reverse channel decomposed into the same layered
// discipline as the forward decode Stack. A DownStack is discrete-event
// and clockless — callers push ack generations at forward-frame
// delivery instants and pull arrivals with explicit `now` stamps — so
// it composes with both virtual and wall clocks, exactly like the
// reverse-channel model it replaces. The stages, bottom to top:
//
//	coalescer       ack serializer: one pending slot, newer cumulative
//	                acks replace a queued unstarted older one
//	occupancy       scheme occupancy & busy-queue: per-copy wall/air
//	                quanta and the serial transmitter's busy horizon
//	                (schemeOccupancy from ctc.Downlink timing, or the
//	                explicit idealOccupancy no-op)
//	reverseFault    per-copy loss draws and the half-duplex forward/ack
//	                collision model
//	timed sinks     TimedLayer consumers, terminated by the built-in
//	                TimedCollector the owner Drains through Arrivals
//
// Every stage reports LayerStats; the cross-stage ack ledger, which the
// reliability layer publishes through SimLink.ReverseStats, is
// assembled by Ledger.

// DownTiming pins a downlink's per-copy occupancy as explicit
// durations: the wall-clock span one ack copy holds the reverse
// channel, the on-air time within it, and the fixed turnaround before
// the first copy can start. Tests and scripted transports use it to
// state quanta exactly; production links resolve a *ctc.Downlink
// instead.
type DownTiming struct {
	Wall, Air, Base time.Duration
}

// DownSpec assembles a DownStack. Exactly one timing source applies:
// Downlink resolves a ctc operating point, Timing states the quanta
// directly, and leaving both nil builds the explicit ideal no-op
// occupancy stage (instant, free, collision-less acks).
type DownSpec struct {
	// Downlink is the resolved ctc ack-downlink timing model.
	Downlink *ctc.Downlink
	// Timing overrides the quanta with explicit durations (tests,
	// scripted links). Mutually exclusive with Downlink.
	Timing *DownTiming
	// Repeat transmits each committed ack this many times (≥ 1).
	Repeat int
	// DropCopy is the per-copy reverse loss draw (nil = lossless).
	DropCopy func() bool
	// Collide draws the half-duplex collision outcomes (nil = never
	// collides). Callers seed it from their collision RNG stream.
	Collide *rand.Rand
	// Sinks are additional timed-event consumers ahead of the built-in
	// collector.
	Sinks []TimedLayer
}

// DownSpec validation errors.
var (
	// ErrDownRepeat reports a non-positive ack repetition count.
	ErrDownRepeat = errors.New("link: DownSpec.Repeat must be at least 1")
	// ErrDownTiming reports both timing sources set at once.
	ErrDownTiming = errors.New("link: DownSpec.Downlink and DownSpec.Timing are mutually exclusive")
)

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
// slot of the serial reverse transmitter. In counts acks offered, Out
// counts acks committed downstream; the difference is what coalescing
// (and any still-pending ack) absorbed.
type coalescer struct {
	pending   *pendingTimed
	coalesced int
	stats     LayerStats
}

func newCoalescer() *coalescer {
	return &coalescer{stats: LayerStats{Name: "coalescer"}}
}

// put queues p, replacing (and counting) a still-pending older ack.
func (c *coalescer) put(p pendingTimed) {
	c.stats.In++
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
	c.stats.Out++
	return p
}

// peek returns the queued ack without committing it.
func (c *coalescer) peek() *pendingTimed { return c.pending }

// Name implements Layer.
func (c *coalescer) Name() string { return "coalescer" }

// Flush implements Layer; commitment follows simulated time, never
// end-of-stream.
func (c *coalescer) Flush() error { return nil }

// Close implements Layer.
func (c *coalescer) Close() error { return nil }

// Stats implements Layer.
func (c *coalescer) Stats() LayerStats { return c.stats }

// occupancy is the scheme occupancy & busy-queue stage: it owns the
// per-copy quanta and the serial transmitter's busy horizon. In counts
// acks committed, Out counts copies put on the air.
type occupancy interface {
	Layer
	// quanta reports the per-copy wall span, on-air time and turnaround.
	quanta() (wall, air, base time.Duration)
	// copies is how many copies each committed ack transmits.
	copies() int
	// startFor schedules an ack generated at gen: after the turnaround,
	// or when the transmitter frees up, whichever is later.
	startFor(gen time.Duration) time.Duration
	// commit accounts one ack's copies starting at start and advances
	// the busy horizon past them.
	commit(start time.Duration)
}

// schemeOccupancy is the modeled occupancy stage: real wall/air/base
// quanta resolved from a ctc operating point or stated explicitly.
type schemeOccupancy struct {
	label           string
	wall, air, base time.Duration
	repeat          int
	busyUntil       time.Duration
	stats           LayerStats
}

func newSchemeOccupancy(label string, wall, air, base time.Duration, repeat int) *schemeOccupancy {
	name := "occupancy:" + label
	return &schemeOccupancy{
		label: label, wall: wall, air: air, base: base, repeat: repeat,
		stats: LayerStats{Name: name},
	}
}

// Name implements Layer.
func (o *schemeOccupancy) Name() string { return o.stats.Name }

func (o *schemeOccupancy) quanta() (time.Duration, time.Duration, time.Duration) {
	return o.wall, o.air, o.base
}

func (o *schemeOccupancy) copies() int { return o.repeat }

func (o *schemeOccupancy) startFor(gen time.Duration) time.Duration {
	start := gen + o.base
	if o.busyUntil > start {
		start = o.busyUntil
	}
	return start
}

func (o *schemeOccupancy) commit(start time.Duration) {
	o.stats.In++
	o.stats.Out += uint64(o.repeat)
	o.busyUntil = start + time.Duration(o.repeat)*o.wall
}

// Flush implements Layer.
func (o *schemeOccupancy) Flush() error { return nil }

// Close implements Layer.
func (o *schemeOccupancy) Close() error { return nil }

// Stats implements Layer.
func (o *schemeOccupancy) Stats() LayerStats { return o.stats }

// idealOccupancy is the explicit no-op occupancy stage behind the ideal
// downlink: acks cost no air, occupy no wall time and turn around
// instantly. It runs the same pending/busy protocol as schemeOccupancy
// with zero quanta, so the ideal baseline follows the identical
// discrete-event path instead of special-cased branches in harness or
// session code.
type idealOccupancy struct {
	repeat    int
	busyUntil time.Duration
	stats     LayerStats
}

func newIdealOccupancy(repeat int) *idealOccupancy {
	return &idealOccupancy{repeat: repeat, stats: LayerStats{Name: "occupancy:ideal"}}
}

// Name implements Layer.
func (o *idealOccupancy) Name() string { return o.stats.Name }

func (o *idealOccupancy) quanta() (time.Duration, time.Duration, time.Duration) {
	return 0, 0, 0
}

func (o *idealOccupancy) copies() int { return o.repeat }

func (o *idealOccupancy) startFor(gen time.Duration) time.Duration {
	if o.busyUntil > gen {
		return o.busyUntil
	}
	return gen
}

func (o *idealOccupancy) commit(start time.Duration) {
	o.stats.In++
	o.stats.Out += uint64(o.repeat)
	o.busyUntil = start
}

// Flush implements Layer.
func (o *idealOccupancy) Flush() error { return nil }

// Close implements Layer.
func (o *idealOccupancy) Close() error { return nil }

// Stats implements Layer.
func (o *idealOccupancy) Stats() LayerStats { return o.stats }

// reverseFault is the per-copy loss + half-duplex collision stage: it
// owns the in-flight copies, draws their reverse loss on admission and
// resolves collisions with forward frames. In counts copies admitted,
// Out counts copies delivered upward, Errs counts copies destroyed
// (reverse loss or collision).
type reverseFault struct {
	dropCopy func() bool
	collide  *rand.Rand
	wall     time.Duration
	duty     float64

	inFlight                                  []downCopy
	dropped, ackCollisions, forwardCollisions int
	stats                                     LayerStats
}

func newReverseFault(dropCopy func() bool, collide *rand.Rand, wall, air time.Duration) *reverseFault {
	f := &reverseFault{
		dropCopy: dropCopy,
		collide:  collide,
		wall:     wall,
		stats:    LayerStats{Name: "reversefault"},
	}
	if wall > 0 {
		f.duty = float64(air) / float64(wall)
	}
	return f
}

// admit puts one committed copy in flight, drawing its reverse loss.
// forceDrop short-circuits the draw (scripted loss consumes no RNG).
func (f *reverseFault) admit(c downCopy, forceDrop bool) {
	f.stats.In++
	if forceDrop || (f.dropCopy != nil && f.dropCopy()) {
		c.dropped = true
		f.dropped++
		f.stats.Errs++
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
// forward frame was destroyed.
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
			f.stats.Errs++
		}
	}
	return killed
}

// drain emits every copy that has fully arrived by now, in arrival
// order, skipping destroyed ones, and keeps the rest in flight.
func (f *reverseFault) drain(now time.Duration, emit func(TimedEvent)) {
	keep := f.inFlight[:0]
	for _, c := range f.inFlight {
		if c.end > now {
			keep = append(keep, c)
			continue
		}
		if c.dropped {
			continue
		}
		f.stats.Out++
		emit(TimedEvent{Kind: TimedAck, Seq: c.seq, Gen: c.gen, At: c.end})
	}
	f.inFlight = keep
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

// Name implements Layer.
func (f *reverseFault) Name() string { return "reversefault" }

// Flush implements Layer; arrivals follow simulated time.
func (f *reverseFault) Flush() error { return nil }

// Close implements Layer.
func (f *reverseFault) Close() error { return nil }

// Stats implements Layer.
func (f *reverseFault) Stats() LayerStats { return f.stats }

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

// DownStack is the downlink half of a duplex link: the layered,
// discrete-event model of a serial ack reverse channel. Like Stack it
// is owned by one goroutine; callers stamp every method with the
// current simulated time, and time must be monotone across calls.
type DownStack struct {
	coal   *coalescer
	occ    occupancy
	fault  *reverseFault
	sinks  []TimedLayer
	sink   *TimedCollector
	closed bool
}

// NewDownStack assembles the downlink stack described by spec.
func NewDownStack(spec DownSpec) (*DownStack, error) {
	if spec.Repeat < 1 {
		return nil, ErrDownRepeat
	}
	if spec.Downlink != nil && spec.Timing != nil {
		return nil, ErrDownTiming
	}
	var occ occupancy
	switch {
	case spec.Downlink != nil:
		sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
		dl := spec.Downlink
		occ = newSchemeOccupancy(dl.SchemeName(),
			sec(dl.AckWall()), sec(dl.AckAir()), sec(dl.BaseLatency()), spec.Repeat)
	case spec.Timing != nil:
		occ = newSchemeOccupancy("fixed",
			spec.Timing.Wall, spec.Timing.Air, spec.Timing.Base, spec.Repeat)
	default:
		occ = newIdealOccupancy(spec.Repeat)
	}
	wall, air, _ := occ.quanta()
	s := &DownStack{
		coal:  newCoalescer(),
		occ:   occ,
		fault: newReverseFault(spec.DropCopy, spec.Collide, wall, air),
		sinks: spec.Sinks,
		sink:  NewTimedCollector(),
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
	wall, _, _ := s.occ.quanta()
	n := s.occ.copies()
	for k := 0; k < n; k++ {
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
// order, through the configured sinks into the built-in collector. The
// returned slice is the collector's reused queue: valid until the next
// drain.
func (s *DownStack) Arrivals(now time.Duration) []TimedEvent {
	s.Advance(now)
	s.fault.drain(now, s.emit)
	return s.sink.Drain()
}

// emit pushes one arrival through the sink chain. Sink errors are
// recorded in the sinks' own stats; arrival delivery never blocks on
// them.
func (s *DownStack) emit(ev TimedEvent) {
	for _, l := range s.sinks {
		_ = l.OnTimed(ev)
	}
	_ = s.sink.OnTimed(ev)
}

// NextArrival reports when the next ack will finish arriving, if any is
// scheduled: the earliest surviving in-flight copy, or the queued
// pending ack's first copy. Copies already destroyed never arrive and
// are skipped — the sender cannot know, which is exactly why it also
// keeps a retransmission timer.
func (s *DownStack) NextArrival(now time.Duration) (time.Duration, bool) {
	s.Advance(now)
	best, ok := s.fault.nextEnd(now)
	if p := s.coal.peek(); p != nil && !p.drop {
		wall, _, _ := s.occ.quanta()
		if first := p.start + wall; !ok || first < best {
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
	wall, _, base := s.occ.quanta()
	return base + wall
}

// Ledger assembles the cross-stage ack accounting.
func (s *DownStack) Ledger() DownlinkLedger {
	_, air, _ := s.occ.quanta()
	sent := int(s.occ.Stats().Out)
	return DownlinkLedger{
		AcksSent:          sent,
		AcksCoalesced:     s.coal.coalesced,
		AcksDropped:       s.fault.dropped,
		AckCollisions:     s.fault.ackCollisions,
		ForwardCollisions: s.fault.forwardCollisions,
		Airtime:           time.Duration(sent) * air,
	}
}

// LayerStats reports every stage's accounting, bottom to top.
func (s *DownStack) LayerStats() []LayerStats {
	out := []LayerStats{s.coal.Stats(), s.occ.Stats(), s.fault.Stats()}
	for _, l := range s.sinks {
		out = append(out, l.Stats())
	}
	return append(out, s.sink.Stats())
}

// Flush implements the stack-level flush: stage flushes only —
// commitment and arrival follow simulated time, never end-of-stream.
func (s *DownStack) Flush() error {
	for _, l := range s.layers() {
		if err := l.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every stage; a closed stack keeps reporting stats.
func (s *DownStack) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, l := range s.layers() {
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// layers lists the stages bottom to top.
func (s *DownStack) layers() []Layer {
	out := []Layer{s.coal, s.occ, s.fault}
	for _, l := range s.sinks {
		out = append(out, l)
	}
	return append(out, s.sink)
}
