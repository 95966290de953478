package reliable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/splitmix"
)

// Sentinel errors of the reliability layer. The root package re-exports
// them; match with errors.Is.
var (
	// ErrWindowFull reports an offer to a sliding window that already
	// holds Window in-flight frames.
	ErrWindowFull = errors.New("reliable: send window full")
	// ErrTimeout reports that the retransmission budget for one frame
	// was exhausted without an acknowledgment.
	ErrTimeout = errors.New("reliable: retransmission budget exhausted")
)

// Transport carries data frames to the far end over the forward (ZigBee)
// channel and surfaces acknowledgments from the reverse (WiFi→ZigBee)
// channel asynchronously. The contract is discrete-event: every method
// takes the caller's current clock reading, so transports need no clock
// of their own.
//
// Send starts transmitting f at now and returns the forward airtime the
// transmission occupies; it completes when that airtime is spent, and
// says nothing about delivery. Acknowledgments travel back on their own
// schedule: Acks drains every ack that has fully arrived by now, and
// NextArrival reports when the next committed ack will land, so a
// discrete-event caller can sleep precisely to it. AckLatency is the
// nominal one-way ack delay on an idle reverse channel — the floor any
// useful retransmission timeout must respect.
//
// Implementations are single-goroutine, driven synchronously by one
// Session. SimLink is the simulated implementation.
type Transport interface {
	Send(now time.Duration, f *core.Frame, coded bool) (airtime time.Duration, err error)
	Acks(now time.Duration) []AckEvent
	NextArrival(now time.Duration) (time.Duration, bool)
	AckLatency() time.Duration
}

// Config parameterizes a Session. No field doubles as a sentinel: every
// value is taken literally, with 0 meaning "disabled" only where the
// field says so. Start from DefaultConfig and override what the link
// needs; NewSession validates.
type Config struct {
	// Window is the maximum number of in-flight frames (≥ 1).
	Window int
	// InitialRTO is the retransmission timeout after a silent flight
	// (> 0). NewSession floors it at 1.5× the transport's AckLatency —
	// a timer shorter than the reverse channel's delay would declare
	// every flight silent before its ack could possibly arrive.
	InitialRTO time.Duration
	// MaxRTO caps the exponential backoff (≥ InitialRTO).
	MaxRTO time.Duration
	// MaxRetries is the number of consecutive no-progress flights
	// tolerated for one window base before the send fails with
	// ErrTimeout (≥ 1).
	MaxRetries int
	// EscalateAfter is the number of consecutive no-progress flights
	// that triggers Hamming-coded mode (0 disables escalation).
	EscalateAfter int
	// DeescalateAfter is the number of consecutive clean (progressing)
	// flights in coded mode that returns the session to plain frames
	// (0 keeps coded mode sticky).
	DeescalateAfter int
	// Clock drives timers; nil means a fresh VirtualClock (tests and
	// simulation). Use NewWallClock for live pacing.
	Clock Clock
	// Seed feeds the jitter source, making timer schedules reproducible.
	Seed int64
	// Metrics optionally shares a stream registry; the session
	// increments the ARQ counters (Retransmits, Timeouts, Escalations,
	// Deescalations).
	Metrics *link.Metrics
}

// Retransmission timer shape: each consecutive silent flight multiplies
// the RTO by rtoBackoff (capped at MaxRTO), and every timeout is spread
// uniformly over ±rtoJitter·RTO so colliding senders desynchronize.
const (
	rtoBackoff = 2
	rtoJitter  = 0.2
)

// DefaultConfig returns the baseline session configuration: window 8,
// 20 ms initial RTO doubling to 500 ms, 16 retries, escalation after 3
// silent flights and de-escalation after 4 clean ones.
func DefaultConfig() Config {
	return Config{
		Window:          8,
		InitialRTO:      20 * time.Millisecond,
		MaxRTO:          500 * time.Millisecond,
		MaxRetries:      16,
		EscalateAfter:   3,
		DeescalateAfter: 4,
	}
}

// Config validation errors.
var (
	errWindow   = errors.New("reliable: Window must be at least 1")
	errRTO      = errors.New("reliable: InitialRTO must be positive")
	errMaxRTO   = errors.New("reliable: MaxRTO must be at least InitialRTO")
	errRetries  = errors.New("reliable: MaxRetries must be at least 1")
	errEscalate = errors.New("reliable: negative escalation threshold")
)

// Validate reports the first structural problem with the config.
func (c Config) Validate() error {
	switch {
	case c.Window < 1:
		return fmt.Errorf("%w: %d", errWindow, c.Window)
	case c.InitialRTO <= 0:
		return fmt.Errorf("%w: %v", errRTO, c.InitialRTO)
	case c.MaxRTO < c.InitialRTO:
		return fmt.Errorf("%w: %v < %v", errMaxRTO, c.MaxRTO, c.InitialRTO)
	case c.MaxRetries < 1:
		return fmt.Errorf("%w: %d", errRetries, c.MaxRetries)
	case c.EscalateAfter < 0 || c.DeescalateAfter < 0:
		return fmt.Errorf("%w: escalate %d, deescalate %d",
			errEscalate, c.EscalateAfter, c.DeescalateAfter)
	}
	return nil
}

// Report summarizes one Send.
type Report struct {
	// Bytes is the message length delivered.
	Bytes int
	// FramesSent counts every frame transmission, retransmits included.
	FramesSent int
	// Retransmits counts transmissions after the first per frame.
	Retransmits int
	// Timeouts counts silent flights that waited out the retransmission
	// timer.
	Timeouts int
	// Escalations and Deescalations count coding-mode switches.
	Escalations   int
	Deescalations int
	// Airtime is the total forward (ZigBee) airtime spent. Reverse
	// (ack) airtime is the transport's ledger — see SimLink.ReverseStats.
	Airtime time.Duration
	// Elapsed is the transfer duration on the session clock: airtime,
	// ack latency and timer waits included.
	Elapsed time.Duration
	// Coded reports whether the session ended in Hamming-coded mode.
	Coded bool
}

// GoodputBps is the delivered application rate in bits per second over
// the whole transfer, timer waits included.
func (r *Report) GoodputBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes*8) / r.Elapsed.Seconds()
}

// segment is one fragment in flight or awaiting its first transmission.
type segment struct {
	frame    *core.Frame
	attempts int
	// lastTxEnd is when this segment's latest transmission finished
	// arriving (zero until first transmitted). Acks generated before
	// the base segment's lastTxEnd are stale — they say nothing about
	// that transmission's fate.
	lastTxEnd time.Duration
}

// window is the go-back-N flight: segs[0] is the base (oldest unacked).
type window struct {
	segs []*segment
	max  int
}

func (w *window) offer(s *segment) error {
	if len(w.segs) >= w.max {
		return ErrWindowFull
	}
	w.segs = append(w.segs, s)
	return nil
}

// ack releases every segment before next (cumulative), returning how
// many segments and data bytes were released. Acks that do not move the
// base — duplicates, or stale NextSeq — release nothing.
func (w *window) ack(next byte) (released, bytes int) {
	if len(w.segs) == 0 {
		return 0, 0
	}
	n := int(next - w.segs[0].frame.Seq) // byte arithmetic handles wrap
	if n <= 0 || n > len(w.segs) {
		return 0, 0
	}
	for _, s := range w.segs[:n] {
		bytes += len(s.frame.Data)
	}
	w.segs = w.segs[n:]
	return n, bytes
}

func (w *window) clear() { w.segs = nil }

// Session is the ARQ send side. It is single-goroutine: one Send at a
// time, driven synchronously against its Transport and Clock.
type Session struct {
	cfg     Config
	tx      Transport
	clock   Clock
	rng     *rand.Rand
	m       *core.Messenger
	metrics *link.Metrics
	coded   bool
}

// NewSession returns a session over the transport. The config's RTOs
// are floored against the transport's AckLatency: a retransmission
// timer shorter than the reverse channel's one-way delay would read
// every in-flight ack as silence.
func NewSession(tx Transport, cfg Config) (*Session, error) {
	if tx == nil {
		return nil, fmt.Errorf("reliable: nil transport")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if floor := tx.AckLatency() * 3 / 2; floor > 0 {
		if cfg.InitialRTO < floor {
			cfg.InitialRTO = floor
		}
		if cfg.MaxRTO < 2*floor {
			cfg.MaxRTO = 2 * floor
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = NewVirtualClock()
	}
	return &Session{
		cfg:   cfg,
		tx:    tx,
		clock: cfg.Clock,
		// Retransmission jitter draws from its own splitmix stream, so
		// timing randomization and the channel fault schedules derived
		// from the same scenario seed stay independent.
		rng:     splitmix.New(cfg.Seed, splitmix.JitterStream),
		m:       core.NewMessenger(nil),
		metrics: cfg.Metrics,
	}, nil
}

// Coded reports whether the session is currently in Hamming-coded mode.
// The mode is sticky across Send calls until the protocol de-escalates.
func (s *Session) Coded() bool { return s.coded }

// Send delivers msg reliably: fragment, transmit under the sliding
// window, retransmit on loss, escalate the coding on persistent loss.
// It returns a Report alongside any error; on error the report covers
// the work done up to the failure.
func (s *Session) Send(ctx context.Context, msg []byte) (rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep = &Report{Bytes: len(msg)}
	start := s.clock.Now()
	defer func() {
		rep.Elapsed = s.clock.Now() - start
		rep.Coded = s.coded
	}()
	if len(msg) == 0 {
		return rep, core.ErrEmptyMessage
	}

	acked := 0           // message bytes acknowledged so far
	baseSeq := s.m.Seq() // sequence of the oldest unacked frame
	win := &window{max: s.cfg.Window}
	var pending []*segment

	// cut (re-)fragments the unacknowledged tail of the message at the
	// current mode's capacity, discarding any in-flight segments. The
	// go-back-N receiver buffers nothing beyond its expectation, so
	// re-cutting with sequence continuity (SetSeq to the base) is safe —
	// but only once resync has confirmed where that expectation stands:
	// acked must be exact, not a lower bound, or the new byte↔sequence
	// mapping diverges from frames the receiver already consumed.
	cut := func() error {
		win.clear()
		size := core.MaxDataBytes
		if s.coded {
			size = MaxCodedDataBytes
		}
		s.m.SetSeq(baseSeq)
		frames, err := s.m.FragmentSize(msg[acked:], size)
		if err != nil {
			return err
		}
		pending = make([]*segment, len(frames))
		for i, f := range frames {
			pending[i] = &segment{frame: f}
		}
		return nil
	}
	if err := cut(); err != nil {
		return rep, err
	}

	rto := s.cfg.InitialRTO
	consecutive := 0 // no-progress flights for the current base
	clean := 0       // progressing flights since entering coded mode

	// setMode escalates to Hamming-coded frames or de-escalates to plain
	// ones. The new mode starts afresh (no flight counts, initial RTO);
	// resync pins acked to the receiver's exact expectation before the
	// unacknowledged tail is re-cut at the new mode's capacity.
	setMode := func(coded bool) error {
		s.coded = coded
		clean = 0
		consecutive = 0
		rto = s.cfg.InitialRTO
		if coded {
			rep.Escalations++
			if s.metrics != nil {
				s.metrics.Escalations.Add(1)
			}
		} else {
			rep.Deescalations++
			if s.metrics != nil {
				s.metrics.Deescalations.Add(1)
			}
		}
		b, nb, err := s.resync(ctx, win, rep, baseSeq)
		acked += b
		baseSeq = nb
		if err != nil || acked >= len(msg) {
			return err
		}
		return cut()
	}

	for acked < len(msg) {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("reliable: send canceled: %w", err)
		}
		for len(pending) > 0 {
			if win.offer(pending[0]) != nil {
				break // ErrWindowFull: flight is at capacity
			}
			pending = pending[1:]
		}
		progressed, heard, relBytes, nextBase, err := s.flight(ctx, win, rep, rto)
		acked += relBytes
		baseSeq = nextBase
		if err != nil {
			return rep, err
		}
		switch {
		case progressed:
			consecutive = 0
			rto = s.cfg.InitialRTO
			if s.coded && s.cfg.DeescalateAfter > 0 {
				clean++
				if clean >= s.cfg.DeescalateAfter && acked < len(msg) {
					if err := setMode(false); err != nil {
						return rep, err
					}
				}
			}
		case heard:
			// Feedback generated after the base's latest transmission
			// arrived, without releasing it: a loss signal — go back and
			// retransmit immediately.
			consecutive++
		default:
			// Silence. The flight already waited out the jittered timer
			// (sleeping toward ack arrivals on the way); just back off.
			consecutive++
			rto = s.backoff(rep, rto)
		}
		if consecutive > s.cfg.MaxRetries {
			return rep, fmt.Errorf("reliable: %w: seq %d after %d flights",
				ErrTimeout, baseSeq, consecutive)
		}
		if !s.coded && s.cfg.EscalateAfter > 0 && consecutive >= s.cfg.EscalateAfter {
			if err := setMode(true); err != nil {
				return rep, err
			}
		}
	}
	return rep, nil
}

// flight transmits the window in order, draining reverse-channel acks
// after every frame, then waits for feedback: it sleeps toward the next
// committed ack arrival until one of them moves the window or the
// jittered rto deadline passes. Released segments shift the iteration
// back so freshly unacked segments are still sent once per flight.
//
// An ack releasing nothing counts as `heard` loss evidence only when it
// was generated at or after the base segment's latest transmission
// ended: the receiver saw the channel past that transmission and still
// did not want the base. Stale acks — late arrivals from before the
// latest transmission, or duplicate downlink copies — still apply their
// cumulative releases but never trigger a retransmission, which is what
// keeps downlink repeats and post-RTO stragglers from corrupting the
// go-back-N schedule.
func (s *Session) flight(ctx context.Context, win *window, rep *Report, rto time.Duration) (progressed, heard bool, relBytes int, nextBase byte, err error) {
	nextBase = s.baseSeqOf(win)
	shift := 0 // window releases observed by drain, consumed by the tx loop
	drain := func() bool {
		for _, ev := range s.tx.Acks(s.clock.Now()) {
			rel, b := win.ack(ev.Ack.NextSeq)
			if rel > 0 {
				progressed = true
				relBytes += b
				nextBase = ev.Ack.NextSeq
				shift += rel
				continue
			}
			if len(win.segs) > 0 && win.segs[0].lastTxEnd > 0 &&
				ev.GeneratedAt >= win.segs[0].lastTxEnd {
				heard = true
			}
		}
		return progressed || heard
	}

	idx := 0
	for idx < len(win.segs) {
		if err := ctx.Err(); err != nil {
			return progressed, heard, relBytes, nextBase, fmt.Errorf("reliable: send canceled: %w", err)
		}
		seg := win.segs[idx]
		if seg.attempts > 0 {
			rep.Retransmits++
			if s.metrics != nil {
				s.metrics.Retransmits.Add(1)
			}
		}
		seg.attempts++
		end, err := s.transmit(ctx, seg.frame, rep)
		if err != nil {
			return progressed, heard, relBytes, nextBase, err
		}
		seg.lastTxEnd = end
		drain()
		idx -= shift
		shift = 0
		if idx < -1 {
			// A catch-up ack released past the cursor; resume at the new
			// front of the window.
			idx = -1
		}
		idx++
	}
	if progressed || heard {
		return progressed, heard, relBytes, nextBase, nil
	}

	// The window is fully transmitted and nothing moved yet. Acks may
	// still be in flight on the reverse channel.
	_, err = s.await(ctx, s.clock.Now()+s.jittered(rto), drain)
	return progressed, heard, relBytes, nextBase, err
}

// resync learns the receiver's exact cumulative expectation before a
// coding-mode re-fragmentation. Lost acknowledgments leave the sender's
// acked count a lower bound: frames past it may already be consumed,
// and re-cutting from a stale offset at a different frame size would
// re-map those bytes onto sequence numbers the receiver has moved
// beyond — corrupting the reassembled message. The probe is an empty
// frame whose sequence precedes the window base; the receiver can never
// accept it (its expectation is always at or past the base), so it
// always answers with a duplicate ack carrying the current expectation,
// which releases exactly the old-mapping segments the receiver holds.
//
// Under a latent downlink only an ack generated at or after the probe's
// delivery is authoritative — a stale ack still in flight carries an
// older expectation. Stale arrivals apply their releases and the wait
// continues; probes retry on the usual timer discipline in the
// session's current coding mode.
func (s *Session) resync(ctx context.Context, win *window, rep *Report, baseSeq byte) (relBytes int, nextBase byte, err error) {
	nextBase = baseSeq
	if len(win.segs) == 0 {
		return 0, nextBase, nil // nothing in flight: acked is already exact
	}
	probe := &core.Frame{Seq: baseSeq - 1}
	rto := s.cfg.InitialRTO
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return relBytes, nextBase, fmt.Errorf("reliable: send canceled: %w", err)
		}
		if attempt > s.cfg.MaxRetries {
			return relBytes, nextBase, fmt.Errorf("reliable: %w: resync probe at seq %d after %d attempts",
				ErrTimeout, baseSeq, attempt)
		}
		probeEnd, err := s.transmit(ctx, probe, rep)
		if err != nil {
			return relBytes, nextBase, err
		}
		exact, err := s.await(ctx, probeEnd+s.jittered(rto), func() bool {
			for _, ev := range s.tx.Acks(s.clock.Now()) {
				_, b := win.ack(ev.Ack.NextSeq)
				relBytes += b
				if ev.GeneratedAt >= probeEnd {
					// Generated after the probe landed: the receiver's
					// current expectation, exact by construction.
					nextBase = ev.Ack.NextSeq
					return true
				}
			}
			return false
		})
		if exact || err != nil {
			return relBytes, nextBase, err
		}
		rto = s.backoff(rep, rto)
	}
}

// transmit sends f now in the session's coding mode and sleeps out its
// airtime, counting the frame and the airtime in rep. It returns the
// instant the transmission ended.
func (s *Session) transmit(ctx context.Context, f *core.Frame, rep *Report) (time.Duration, error) {
	rep.FramesSent++
	airtime, err := s.tx.Send(s.clock.Now(), f, s.coded)
	rep.Airtime += airtime
	if slErr := s.clock.Sleep(ctx, airtime); slErr != nil {
		return 0, fmt.Errorf("reliable: send canceled: %w", slErr)
	}
	if err != nil {
		return 0, fmt.Errorf("reliable: transport: %w", err)
	}
	return s.clock.Now(), nil
}

// await polls for feedback until poll reports it has what it waits
// for, sleeping between polls precisely toward the next committed ack
// arrival or the deadline, whichever comes first. It reports whether
// poll was satisfied before the deadline passed.
func (s *Session) await(ctx context.Context, deadline time.Duration, poll func() bool) (bool, error) {
	for !poll() {
		now := s.clock.Now()
		if now >= deadline {
			return false, nil
		}
		target := deadline
		if next, ok := s.tx.NextArrival(now); ok && next < target {
			target = next
		}
		if err := s.clock.Sleep(ctx, target-now); err != nil {
			return false, fmt.Errorf("reliable: send canceled: %w", err)
		}
	}
	return true, nil
}

// backoff counts a flight or probe that waited out its timer in
// silence and returns the next timeout: rto times rtoBackoff, capped
// at MaxRTO.
func (s *Session) backoff(rep *Report, rto time.Duration) time.Duration {
	rep.Timeouts++
	if s.metrics != nil {
		s.metrics.Timeouts.Add(1)
	}
	return min(time.Duration(float64(rto)*rtoBackoff), s.cfg.MaxRTO)
}

func (s *Session) baseSeqOf(win *window) byte {
	if len(win.segs) > 0 {
		return win.segs[0].frame.Seq
	}
	return s.m.Seq()
}

// jittered spreads d uniformly over [d·(1−rtoJitter), d·(1+rtoJitter)].
func (s *Session) jittered(d time.Duration) time.Duration {
	f := 1 + rtoJitter*(2*s.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}
