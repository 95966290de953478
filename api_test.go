package symbee

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"symbee/internal/reliable"
)

// Every exported sentinel must match, via errors.Is, an error produced
// by a genuine code path of the layer it belongs to.
func TestPublicSentinelsEndToEnd(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}

	// ErrNoPreamble: a capture with no SymBee content.
	if _, err := link.ReceiveFrame(make([]complex128, 20000)); !errors.Is(err, ErrNoPreamble) {
		t.Fatalf("empty capture: %v, want ErrNoPreamble", err)
	}

	// ErrCRC: corrupt one codeword byte of a valid frame payload.
	payload, err := EncodeFrame(&Frame{Seq: 1, Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] ^= Bit0Byte ^ Bit1Byte // flip the last bit's codeword
	sig, err := link.PayloadToSignal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := link.ReceiveFrame(sig); !errors.Is(err, ErrCRC) {
		t.Fatalf("corrupted frame: %v, want ErrCRC", err)
	}

	// ErrBadLength: data that cannot fit one frame.
	if _, err := EncodeFrame(&Frame{Data: make([]byte, MaxDataBytes+1)}); !errors.Is(err, ErrBadLength) {
		t.Fatalf("oversize frame: %v, want ErrBadLength", err)
	}

	// ErrWindowFull / ErrTimeout surface from the reliability layer.
	s, err := NewSession(WithTransport(lossyTransport{}),
		WithWindow(1), WithRetries(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Send(context.Background(), []byte("never arrives"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dead transport: %v, want ErrTimeout", err)
	}
	if !errors.Is(reliable.ErrWindowFull, ErrWindowFull) {
		t.Fatal("public ErrWindowFull is not the reliability layer's sentinel")
	}

	// ErrFlushed: a push after Flush ended the stream, until Reset.
	rx, err := NewReceiver(Params20(), WithCompensation(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rx.PushIQ(sig); !errors.Is(err, ErrFlushed) {
		t.Fatalf("IQ push after Flush: %v, want ErrFlushed", err)
	}
	if err := rx.PushPhases(make([]float64, 64)); !errors.Is(err, ErrFlushed) {
		t.Fatalf("phase push after Flush: %v, want ErrFlushed", err)
	}
	rx.Reset()
	if err := rx.PushIQ(sig); err != nil {
		t.Fatalf("push after Reset: %v, want nil", err)
	}
}

// lossyTransport loses every frame and never produces an ack.
type lossyTransport struct{}

func (lossyTransport) Send(now time.Duration, f *Frame, coded bool) (time.Duration, error) {
	return time.Millisecond, nil
}

func (lossyTransport) Acks(now time.Duration) []AckEvent { return nil }

func (lossyTransport) NextArrival(now time.Duration) (time.Duration, bool) { return 0, false }

func (lossyTransport) AckLatency() time.Duration { return 0 }

// The option-based session delivers end to end over the built-in
// simulated link with a modeled ack downlink, and the reverse channel
// demonstrably costs airtime.
func TestNewSessionOptions(t *testing.T) {
	link, err := NewSimLink(DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	sess, err := NewSession(WithTransport(link), WithWindow(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("bidirectional cross-technology session")
	rep, err := sess.Send(context.Background(), msg)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := link.Messages(); len(msgs) != 1 || !bytes.Equal(msgs[0], msg) {
		t.Fatalf("message not delivered: %d messages", len(msgs))
	}
	if rep.Airtime <= 0 {
		t.Fatal("no forward airtime reported")
	}
	rs := link.ReverseStats()
	if rs.AcksSent == 0 || rs.Airtime <= 0 {
		t.Fatalf("acks rode for free: %+v", rs)
	}

	// Without WithTransport the session builds its own link; an invalid
	// option surfaces at construction.
	if _, err := NewSession(WithDownlink(DownlinkFreeBee), WithSeed(3)); err != nil {
		t.Fatalf("self-built link: %v", err)
	}
	if _, err := NewSession(WithAckRepeat(0)); err == nil {
		t.Fatal("invalid ack repeat accepted")
	}
	if _, err := NewSession(WithWindow(-1)); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// The option-based receiver decodes a chunked capture exactly like the
// batch path.
func TestNewReceiverOptions(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &Frame{Seq: 9, Data: []byte("streamed!!")}
	sig, err := link.TransmitFrame(want)
	if err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	rx, err := NewReceiver(Params20(), WithCompensation(0), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(sig); off += 4096 {
		end := off + 4096
		if end > len(sig) {
			end = len(sig)
		}
		rx.PushIQ(sig[off:end])
	}
	rx.Flush()
	var got *Frame
	for _, ev := range rx.Drain() {
		if ev.Kind == EventFrame {
			got = ev.Frame
		}
	}
	if got == nil || got.Seq != want.Seq || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if m.FramesDecoded.Load() != 1 {
		t.Fatalf("shared metrics missed the frame: %d", m.FramesDecoded.Load())
	}
}

// A NaN or infinite compensation would build a receiver that never
// decodes; NewReceiver and NewPool refuse it with ErrBadCompensation.
func TestNewReceiverRejectsNonFiniteCompensation(t *testing.T) {
	for _, comp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewReceiver(Params20(), WithCompensation(comp)); !errors.Is(err, ErrBadCompensation) {
			t.Errorf("NewReceiver(WithCompensation(%v)) error %v, want ErrBadCompensation", comp, err)
		}
		if pool, err := NewPool(WithCompensation(comp)); !errors.Is(err, ErrBadCompensation) {
			if err == nil {
				pool.Close()
			}
			t.Errorf("NewPool(WithCompensation(%v)) error %v, want ErrBadCompensation", comp, err)
		}
	}
}

// A context-bound pool decodes, then shuts down cleanly on cancel:
// subsequent Ingest reports rejection and Close stays safe.
func TestNewPoolWithContextCancellation(t *testing.T) {
	link, err := NewLink(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &Frame{Seq: 2, Data: []byte("pooled")}
	sig, err := link.TransmitFrame(want)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var frames []*Frame
	ctx, cancel := context.WithCancel(context.Background())
	pool, err := NewPool(
		WithContext(ctx),
		WithWorkers(2),
		WithCompensation(0),
		WithEvents(func(ev Event) {
			if ev.Kind == EventFrame {
				mu.Lock()
				frames = append(frames, ev.Frame)
				mu.Unlock()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Ingest(Chunk{Stream: 7, IQ: sig, Flush: true}) {
		t.Fatal("ingest rejected on an open pool")
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	// Poll with content-free chunks: cancellation propagates
	// asynchronously, and a chunk that slips in before the close lands
	// must not decode anything.
	for pool.Ingest(Chunk{Stream: 8, IQ: make([]complex128, 64)}) {
		if time.Now().After(deadline) {
			t.Fatal("pool still accepting chunks after cancel")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Close() // idempotent with the context-driven close
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != 1 || !bytes.Equal(frames[0].Data, want.Data) {
		t.Fatalf("decoded %d frames, want the one ingested before cancel", len(frames))
	}
}

// A rejected pool configuration reports its layer prefix exactly once.
func TestNewPoolErrorPrefix(t *testing.T) {
	pool, err := NewPool(WithParams(Params{}))
	if err == nil {
		pool.Close()
		t.Fatal("NewPool with zero Params succeeded")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "stream: ") || strings.Count(msg, "stream:") != 1 {
		t.Errorf("error %q, want exactly one leading stream: prefix", msg)
	}
}
