package reliable

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"symbee/internal/core"
	"symbee/internal/link"
)

// hostileTx is a Transport scripted by fuzz input. Per Send it loses
// the frame, delivers it and schedules 1–4 copies of the ack at delays
// of up to almost four RTOs past the frame end (so acks overtake each
// other and straggle past the retransmission timer), delivers it and
// drops the ack, or blacks the channel out for 1–8 RTOs: frames sent
// and acks landing inside the blackout are lost. It can also hand one
// drain's acks over in reverse arrival order. Past the end of the
// script every frame is delivered and acked once after the nominal
// latency.
//
// Session.transmit makes the only Send call and Session.await the only
// NextArrival call, and every ack the session reads comes out of Acks,
// so the transport sees every interaction and checks the session's
// contract as it goes:
//   - the frames the receiver accepts always spell a prefix of the
//     message;
//   - every flight the session starts after its first — a go-back-N
//     retransmission of the window or a resync probe — follows a
//     timeout, an ack that released a segment, or an ack generated at
//     or after the base's last transmission ended; never only stale
//     acks;
//   - the session starts no flight after MaxRetries+1 consecutive
//     flights in one coding mode released nothing, and sends at most
//     MaxRetries+1 resync probes in a row.
type hostileTx struct {
	t          *testing.T
	ops        []byte
	arq        *Receiver
	msg        []byte
	lat        time.Duration // nominal ack latency
	minTimeout time.Duration // the shortest jittered RTO the session can draw
	maxRetries int

	pending    []link.TimedEvent // acks in flight
	out        []link.TimedEvent // the reused drain buffer Acks hands over
	reverse    bool              // hand the next non-empty drain over reversed
	blackFrom  time.Duration
	blackUntil time.Duration
	delivered  []byte // data of the frames the receiver accepted, in order
	sends      int
	prevSeq    byte
	prevEnd    time.Duration
	base       byte                   // highest cumulative ack handed over
	lastEnd    map[byte]time.Duration // end of each sequence's latest transmission
	evidence   bool                   // a release or fresh ack since the current flight began
	released   bool                   // a release since the current flight began
	coded      bool                   // coding mode of the current flight
	failed     int                    // consecutive flights in this mode that released nothing
	probes     int                    // resync probes since the last data flight
}

func newHostileTx(t *testing.T, msg, ops []byte, lat time.Duration) *hostileTx {
	return &hostileTx{
		t:       t,
		ops:     ops,
		arq:     NewReceiver(nil),
		msg:     msg,
		lat:     lat,
		lastEnd: make(map[byte]time.Duration),
	}
}

func (tx *hostileTx) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	t := tx.t
	airtime := FrameAirtime(len(f.Data), coded)
	end := now + airtime
	probe := len(f.Data) == 0 // data frames carry at least one byte

	// Within a flight the session sends back to back in rising sequence
	// order. A flight, or a probe, starts after a wait, by going back to
	// a sequence already passed, or after a probe.
	start := tx.sends == 0 || now != tx.prevEnd || f.Seq <= tx.prevSeq || probe || tx.probes > 0
	if start && tx.sends > 0 {
		if !tx.evidence && now-tx.prevEnd < tx.minTimeout {
			t.Fatalf("send %d (seq %d) at %v: flight restarted %v after the last one ended, on stale acks alone",
				tx.sends, f.Seq, now, now-tx.prevEnd)
		}
		tx.evidence = false
	}
	switch {
	case probe:
		if tx.probes++; tx.probes > tx.maxRetries+1 {
			t.Fatalf("%d resync probes in a row, MaxRetries %d", tx.probes, tx.maxRetries)
		}
	case start:
		if tx.released || coded != tx.coded || tx.sends == 0 {
			tx.failed = 0
		} else if tx.failed++; tx.failed > tx.maxRetries {
			t.Fatalf("flight %d after %d that released nothing, MaxRetries %d", tx.sends, tx.failed, tx.maxRetries)
		}
		tx.released, tx.coded, tx.probes = false, coded, 0
	}
	tx.sends++
	tx.prevSeq, tx.prevEnd = f.Seq, end
	tx.lastEnd[f.Seq] = end

	var a, b byte
	if i := 2 * (tx.sends - 1); i+1 < len(tx.ops) {
		a, b = tx.ops[i], tx.ops[i+1]
	}
	unit := tx.minTimeout / 3 // about a quarter RTO
	if a&3 == 3 {
		// Blackout: this frame and every ack landing before it lifts
		// are lost.
		tx.blackFrom, tx.blackUntil = now, now+time.Duration(1+b&7)*4*unit
		tx.pending = slices.DeleteFunc(tx.pending, tx.blackedOut)
	}
	if now < tx.blackUntil || a&3 == 1 {
		return airtime, nil // frame lost
	}
	expected := tx.arq.expected
	next, _ := tx.arq.Deliver(f)
	if next != expected {
		tx.delivered = append(tx.delivered, f.Data...)
		if !bytes.HasPrefix(tx.msg, tx.delivered) {
			t.Fatalf("receiver accepted seq %d: delivered bytes %x are not a prefix of the message", f.Seq, tx.delivered)
		}
	}
	if a&3 == 2 {
		return airtime, nil // every copy of the ack lost
	}
	at := end + tx.lat + time.Duration(a>>4)*unit
	for k := range 1 + int(a>>2&3) {
		ev := link.TimedEvent{Seq: next, Gen: end, At: at + time.Duration(k)*time.Duration(b>>3&15)*unit/2}
		if !tx.blackedOut(ev) {
			tx.pending = append(tx.pending, ev)
		}
	}
	tx.reverse = tx.reverse || b&0x80 != 0
	return airtime, nil
}

func (tx *hostileTx) blackedOut(ev link.TimedEvent) bool {
	return ev.At >= tx.blackFrom && ev.At < tx.blackUntil
}

// Acks hands over every ack that has arrived by now, in arrival order
// or reversed, and follows the session's window through them: an ack
// past the base releases, and one generated at or after the base's
// last transmission ended is fresh loss evidence.
func (tx *hostileTx) Acks(now time.Duration) []link.TimedEvent {
	tx.out = tx.out[:0]
	tx.pending = slices.DeleteFunc(tx.pending, func(ev link.TimedEvent) bool {
		if ev.At > now {
			return false
		}
		tx.out = append(tx.out, ev)
		return true
	})
	slices.SortStableFunc(tx.out, func(x, y link.TimedEvent) int { return int(x.At - y.At) })
	if tx.reverse && len(tx.out) > 0 {
		slices.Reverse(tx.out)
		tx.reverse = false
	}
	for _, ev := range tx.out {
		if ev.Seq > tx.base {
			tx.base = ev.Seq
			tx.released, tx.evidence = true, true
		} else if end, sent := tx.lastEnd[tx.base]; !sent || ev.Gen >= end {
			tx.evidence = true
		}
	}
	return tx.out
}

func (tx *hostileTx) NextArrival(now time.Duration) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, ev := range tx.pending {
		if ev.At > now && (!ok || ev.At < best) {
			best, ok = ev.At, true
		}
	}
	return best, ok
}

func (tx *hostileTx) AckLatency() time.Duration { return tx.lat }

// FuzzSession drives one Send over a hostile transport and checks the
// session's contract (see hostileTx) plus its outcome: the message
// arrives intact exactly once, or Send fails with ErrTimeout. Messages
// hold at most 64 bytes, so no sequence number wraps within a Send.
//
// ops is read in pairs [a b], one per Send: a&3 picks deliver, lose,
// drop the ack or black out; a>>2&3 adds duplicate ack copies; a>>4
// delays the ack by that many quarter RTOs past the nominal latency.
// b&7 sets a blackout's length, b>>3&15 spaces the duplicate copies in
// eighth RTOs, and b bit 7 reverses the next drain.
func FuzzSession(f *testing.F) {
	// Frame 0 lost, frame 1's duplicate ack straggles past the timer,
	// then the retransmitted window's acks straggle too: the stale
	// duplicate lands mid-wait and must not restart the flight.
	f.Add(uint8(20), uint8(1), uint8(4), uint8(3), uint8(2), uint8(2), int64(1),
		[]byte{1, 0, 0x60, 0, 0x80, 0, 0x80, 0})
	f.Add(uint8(40), uint8(3), uint8(4), uint8(2), uint8(2), uint8(8), int64(2), []byte{})
	// Duplicated, spaced and reordered acks.
	f.Add(uint8(50), uint8(4), uint8(6), uint8(3), uint8(2), uint8(4), int64(3),
		[]byte{0x0c, 0x88, 0x2c, 0x10, 0, 0x80, 0x4c, 0x48, 0x1c, 0x98, 0x08, 0x20})
	// A blackout of four RTOs, then ack loss that forces escalation
	// and the resync probe.
	f.Add(uint8(63), uint8(2), uint8(5), uint8(2), uint8(3), uint8(20), int64(4),
		[]byte{3, 3, 2, 0, 2, 0, 2, 0, 2, 0, 0x30, 0x80, 1, 0})
	// Everything lost: the session must give up with ErrTimeout.
	f.Add(uint8(10), uint8(2), uint8(2), uint8(0), uint8(0), uint8(2), int64(5),
		bytes.Repeat([]byte{1, 0}, 64))
	f.Fuzz(func(t *testing.T, msgLen, window, retries, escalate, deescalate, latency uint8, seed int64, ops []byte) {
		if len(ops) > 2*256 {
			return
		}
		msg := testMessage(1 + int(msgLen%64))
		cfg := DefaultConfig()
		cfg.Window = 1 + int(window%8)
		cfg.MaxRetries = 1 + int(retries%8)
		cfg.EscalateAfter = int(escalate % 5)
		cfg.DeescalateAfter = int(deescalate % 5)
		cfg.Seed = seed
		tx := newHostileTx(t, msg, ops, time.Duration(latency%64)*500*time.Microsecond)
		s, err := NewSession(tx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tx.maxRetries = s.cfg.MaxRetries
		tx.minTimeout = time.Duration(float64(s.cfg.InitialRTO)*(1-rtoJitter)) - 1
		rep, err := s.Send(context.Background(), msg)
		if rep.FramesSent != tx.sends {
			t.Fatalf("report counts %d frames, transport saw %d", rep.FramesSent, tx.sends)
		}
		msgs := tx.arq.Messages()
		if err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Send = %v, want delivery or ErrTimeout", err)
			}
			return
		}
		if len(msgs) != 1 || !bytes.Equal(msgs[0], msg) || !bytes.Equal(tx.delivered, msg) {
			t.Fatalf("Send succeeded but %d messages arrived (delivered %x, want %x)", len(msgs), tx.delivered, msg)
		}
	})
}
