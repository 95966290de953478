package reliable

import (
	"math/rand"
	"testing"
	"time"

	"symbee/internal/link"
	"symbee/internal/splitmix"
)

// This file pins link.DownStack to the monolithic reverseChannel it
// replaced: the original implementation is preserved below verbatim as
// a test-only reference, and the equivalence test drives both through
// identical randomized schedules with identical RNG streams, comparing
// every observable — ack events, collision verdicts, next-arrival
// predictions and the final ledger — bit for bit over 100 splitmix
// seeds. The test keeps its historical name because the
// DUPLEX_EQUIVALENCE_RUN gate in scripts/gates.sh selects it by name.

// ackCopy is one committed reverse-channel transmission of an ack.
type ackCopy struct {
	ack        Ack
	gen        time.Duration // when the receiver generated the ack
	start, end time.Duration // reverse-channel occupancy span
	dropped    bool          // lost (reverse fault or collision): never arrives
}

// pendingAck is the newest cumulative ack queued behind the serial
// reverse transmitter, not yet started.
type pendingAck struct {
	ack   Ack
	gen   time.Duration
	start time.Duration
	drop  bool
}

// reverseChannel is the PR-8 monolithic downlink model, kept verbatim
// as the equivalence reference.
type reverseChannel struct {
	wall, air, base time.Duration // per-copy occupancy, on-air time, turnaround
	repeat          int           // copies per committed ack
	dropCopy        func() bool   // per-copy reverse loss draw (nil = lossless)
	collide         *rand.Rand    // collision draws (nil = never collides)

	busyUntil time.Duration // serial transmitter: when the last copy ends
	pending   *pendingAck
	inFlight  []ackCopy
	stats     link.DownlinkLedger
}

func (rc *reverseChannel) latency() time.Duration { return rc.base + rc.wall }

func (rc *reverseChannel) advance(now time.Duration) {
	p := rc.pending
	if p == nil || p.start > now {
		return
	}
	rc.pending = nil
	for k := 0; k < rc.repeat; k++ {
		c := ackCopy{
			ack:   p.ack,
			gen:   p.gen,
			start: p.start + time.Duration(k)*rc.wall,
			end:   p.start + time.Duration(k+1)*rc.wall,
		}
		if p.drop || (rc.dropCopy != nil && rc.dropCopy()) {
			c.dropped = true
			rc.stats.AcksDropped++
		}
		rc.inFlight = append(rc.inFlight, c)
		rc.stats.AcksSent++
		rc.stats.Airtime += rc.air
	}
	rc.busyUntil = p.start + time.Duration(rc.repeat)*rc.wall
}

func (rc *reverseChannel) generate(gen time.Duration, ack Ack, drop bool) {
	rc.advance(gen)
	start := gen + rc.base
	if rc.busyUntil > start {
		start = rc.busyUntil
	}
	if rc.pending != nil {
		rc.stats.AcksCoalesced++
	}
	rc.pending = &pendingAck{ack: ack, gen: gen, start: start, drop: drop}
}

func (rc *reverseChannel) collideForward(start, end time.Duration) bool {
	if rc.collide == nil || rc.wall <= 0 {
		return false
	}
	duty := float64(rc.air) / float64(rc.wall)
	killed := false
	for i := range rc.inFlight {
		c := &rc.inFlight[i]
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
		fwdDraw := rc.collide.Float64()
		copyDraw := rc.collide.Float64()
		if fwdDraw < duty {
			if !killed {
				rc.stats.ForwardCollisions++
			}
			killed = true
		}
		if copyDraw < float64(hi-lo)/float64(c.end-c.start) && !c.dropped {
			c.dropped = true
			rc.stats.AckCollisions++
		}
	}
	return killed
}

func (rc *reverseChannel) acks(now time.Duration) []AckEvent {
	rc.advance(now)
	var out []AckEvent
	keep := rc.inFlight[:0]
	for _, c := range rc.inFlight {
		if c.end > now {
			keep = append(keep, c)
			continue
		}
		if !c.dropped {
			out = append(out, AckEvent{Ack: c.ack, GeneratedAt: c.gen, At: c.end})
		}
	}
	rc.inFlight = keep
	return out
}

func (rc *reverseChannel) nextArrival(now time.Duration) (time.Duration, bool) {
	rc.advance(now)
	best := time.Duration(-1)
	for _, c := range rc.inFlight {
		if c.dropped || c.end <= now {
			continue
		}
		if best < 0 || c.end < best {
			best = c.end
		}
	}
	if p := rc.pending; p != nil && !p.drop {
		if first := p.start + rc.wall; best < 0 || first < best {
			best = first
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// reverseOp is one step of a randomized downlink schedule.
type reverseOp struct {
	kind int // 0 generate, 1 collideForward, 2 acks, 3 nextArrival
	now  time.Duration
	end  time.Duration // collideForward span end
	seq  byte
	drop bool
}

// randomReverseSchedule draws a monotone op schedule: times only move
// forward, matching the discrete-event contract both implementations
// assume.
func randomReverseSchedule(r *rand.Rand, n int) []reverseOp {
	ops := make([]reverseOp, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(r.Intn(20)) * time.Millisecond
		op := reverseOp{kind: r.Intn(4), now: now, seq: byte(r.Intn(256))}
		switch op.kind {
		case 0:
			op.drop = r.Intn(10) == 0
		case 1:
			op.end = now + time.Duration(1+r.Intn(30))*time.Millisecond
			now = op.end
		}
		ops = append(ops, op)
	}
	return ops
}

// TestDownlinkLayeredEquivalence drives DownStack and the
// monolithic reference through identical randomized schedules with
// identical splitmix streams over 100 seeds and requires every
// observable to match exactly.
func TestDownlinkLayeredEquivalence(t *testing.T) {
	const seeds = 100
	timings := []struct {
		name            string
		wall, air, base time.Duration
		repeat          int
		ideal           bool
	}{
		{name: "cmorse-like", wall: 37 * time.Millisecond, air: 9 * time.Millisecond,
			base: time.Millisecond, repeat: 1},
		{name: "repeat3", wall: 10 * time.Millisecond, air: 2 * time.Millisecond,
			base: 3 * time.Millisecond, repeat: 3},
		{name: "ideal", repeat: 2, ideal: true},
	}
	for _, tc := range timings {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				// Two independent, identically seeded draws per RNG role:
				// the reference and the stack must consume them in the
				// same order or every downstream comparison unravels.
				refDrop := splitmix.New(seed, splitmix.ReverseStream)
				stkDrop := splitmix.New(seed, splitmix.ReverseStream)
				ref := &reverseChannel{
					wall: tc.wall, air: tc.air, base: tc.base, repeat: tc.repeat,
					dropCopy: func() bool { return refDrop.Float64() < 0.15 },
					collide:  splitmix.New(seed, splitmix.CollisionStream),
				}
				spec := link.DownSpec{
					Repeat:   tc.repeat,
					DropCopy: func() bool { return stkDrop.Float64() < 0.15 },
					Collide:  splitmix.New(seed, splitmix.CollisionStream),
				}
				if !tc.ideal {
					spec.Timing = link.DownTiming{Wall: tc.wall, Air: tc.air, Base: tc.base}
				}
				stk, err := link.NewDownStack(spec)
				if err != nil {
					t.Fatal(err)
				}
				ops := randomReverseSchedule(splitmix.New(seed, splitmix.ScheduleStream), 200)
				for i, op := range ops {
					switch op.kind {
					case 0:
						ref.generate(op.now, Ack{NextSeq: op.seq}, op.drop)
						stk.Generate(op.now, op.seq, op.drop)
					case 1:
						// Mirror SimLink's usage: advance to the frame end so
						// copies starting mid-frame participate, then draw.
						ref.advance(op.end)
						refKilled := ref.collideForward(op.now, op.end)
						stk.Advance(op.end)
						stkKilled := stk.CollideForward(op.now, op.end)
						if refKilled != stkKilled {
							t.Fatalf("seed %d op %d: collide %v vs %v", seed, i, refKilled, stkKilled)
						}
					case 2:
						refEvs := ref.acks(op.now)
						stkEvs := ackEvents(stk.Arrivals(op.now))
						if len(refEvs) != len(stkEvs) {
							t.Fatalf("seed %d op %d: %d acks vs %d", seed, i, len(refEvs), len(stkEvs))
						}
						for j := range refEvs {
							if refEvs[j] != stkEvs[j] {
								t.Fatalf("seed %d op %d ack %d: %+v vs %+v",
									seed, i, j, refEvs[j], stkEvs[j])
							}
						}
					case 3:
						refAt, refOK := ref.nextArrival(op.now)
						stkAt, stkOK := stk.NextArrival(op.now)
						if refAt != stkAt || refOK != stkOK {
							t.Fatalf("seed %d op %d: nextArrival %v,%v vs %v,%v",
								seed, i, refAt, refOK, stkAt, stkOK)
						}
					}
				}
				if ref.latency() != stk.Latency() {
					t.Fatalf("seed %d: latency %v vs %v", seed, ref.latency(), stk.Latency())
				}
				if got := stk.Ledger(); got != ref.stats {
					t.Fatalf("seed %d: ledger %+v vs %+v", seed, got, ref.stats)
				}
			}
		})
	}
}
