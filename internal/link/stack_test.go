package link

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/wifi"
)

// testCapture modulates one framed message and returns the receiver-side
// phase stream (baseband-aligned) plus the expected frame.
func testCapture(t *testing.T, p core.Params, seq byte, data string) ([]float64, *core.Frame) {
	t.Helper()
	phy, err := core.NewLink(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &core.Frame{Seq: seq, Data: []byte(data)}
	sig, err := phy.TransmitFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	return phy.Phases(sig), want
}

// testIQCapture modulates one framed message through the default noisy
// channel scenario and returns the IQ capture plus the expected frame.
func testIQCapture(t *testing.T, p core.Params, seq byte, data string) ([]complex128, *core.Frame) {
	t.Helper()
	phy, err := core.NewLink(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := &core.Frame{Seq: seq, Data: []byte(data)}
	sig, err := phy.TransmitFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	med, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      15,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        2000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return med.Transmit(sig), want
}

func frameEqual(a, b *core.Frame) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Seq != b.Seq || a.Flags != b.Flags || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// batchDecode pushes one whole capture through a fresh batch stack,
// flushes it, and returns its first terminal event (nil when the capture
// held no preamble).
func batchDecode(t *testing.T, dec *core.Decoder, phases []float64) *Event {
	t.Helper()
	st, err := NewBatch(dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PushPhases(phases); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range st.Drain() {
		if ev.Kind == core.EventFrame || ev.Kind == core.EventDecodeError {
			return &ev
		}
	}
	return nil
}

// TestDecodeBatchMatchesDecodeFrame checks the two one-shot entries of
// the one frame machine against each other: a NewBatch
// push/flush/drain and core.Decoder.DecodeFrame (which stops at the
// first terminal event) give identical frames on success, and no
// terminal event where DecodeFrame finds no preamble.
func TestDecodeBatchMatchesDecodeFrame(t *testing.T) {
	p := core.Params20()
	dec, err := core.NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	phases, want := testCapture(t, p, 3, "hello link")
	ref, refErr := dec.DecodeFrame(phases)
	if refErr != nil {
		t.Fatalf("DecodeFrame: %v", refErr)
	}
	ev := batchDecode(t, dec, phases)
	if ev == nil || ev.Kind != core.EventFrame {
		t.Fatalf("batch stack terminal event %+v, want a frame", ev)
	}
	if !frameEqual(ref, ev.Frame) || !frameEqual(ev.Frame, want) {
		t.Fatalf("frames differ: ref %+v, stack %+v, want %+v", ref, ev.Frame, want)
	}

	// Pure noise: DecodeFrame finds no preamble, and the stack emits no
	// terminal event.
	rng := rand.New(rand.NewSource(11))
	noise := make([]float64, 40_000)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 0.3
	}
	if _, refErr = dec.DecodeFrame(noise); !errors.Is(refErr, core.ErrNoPreamble) {
		t.Fatalf("noise DecodeFrame: %v, want ErrNoPreamble", refErr)
	}
	if ev := batchDecode(t, dec, noise); ev != nil {
		t.Fatalf("noise batch stack emitted %+v, want no terminal event", ev)
	}
}

// TestStreamingChunkInvariance pins the streaming stack's defining
// property: the same capture decodes to the same frame regardless of how
// it is chunked on the way in.
func TestStreamingChunkInvariance(t *testing.T) {
	p := core.Params20()
	iq, want := testIQCapture(t, p, 9, "chunks")
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64, 1024, len(iq)} {
		st, err := NewStreaming(dec, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		var frames []*core.Frame
		collect := func() {
			for _, ev := range st.Drain() {
				if ev.Stream != 42 {
					t.Fatalf("chunk %d: event stream %d, want 42", chunk, ev.Stream)
				}
				if ev.Kind == core.EventFrame {
					frames = append(frames, ev.Frame)
				}
			}
		}
		for off := 0; off < len(iq); off += chunk {
			end := off + chunk
			if end > len(iq) {
				end = len(iq)
			}
			if err := st.PushIQ(iq[off:end]); err != nil {
				t.Fatal(err)
			}
			collect()
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		collect()
		if len(frames) != 1 || !frameEqual(frames[0], want) {
			t.Fatalf("chunk %d: got %d frame(s) %+v, want 1 × %+v", chunk, len(frames), frames, want)
		}
	}
}

// TestStackResetReuse pins the harness pattern: one batch stack, Reset
// between captures, no cross-capture state leakage.
func TestStackResetReuse(t *testing.T) {
	p := core.Params20()
	dec, err := core.NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewBatch(dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		phases, want := testCapture(t, p, byte(i), "capture")
		st.Reset()
		if err := st.PushPhases(phases); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		var frame *core.Frame
		for _, ev := range st.Drain() {
			if ev.Kind == core.EventFrame {
				frame = ev.Frame
			}
		}
		if !frameEqual(frame, want) {
			t.Fatalf("capture %d: frame %+v, want %+v", i, frame, want)
		}
	}
}

// TestStackErrors pins the error surface: pushes after Flush, and the
// nil-decoder spec.
func TestStackErrors(t *testing.T) {
	p := core.Params20()
	dec, err := core.NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewBatch(dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.PushPhases(make([]float64, 16)); !errors.Is(err, core.ErrFlushed) {
		t.Errorf("phase push after Flush: %v, want core.ErrFlushed", err)
	}
	if err := st.PushIQ(make([]complex128, 16)); !errors.Is(err, core.ErrFlushed) {
		t.Errorf("IQ push after Flush: %v, want core.ErrFlushed", err)
	}
	st.Reset()
	if err := st.PushPhases(make([]float64, 16)); err != nil {
		t.Errorf("push after Reset: %v, want nil", err)
	}
	if _, err := NewBatch(nil, nil); err == nil {
		t.Error("NewBatch with nil decoder succeeded, want error")
	}
}

// TestStackMetrics checks the one-registry contract: pushing a capture
// through an instrumented stack lands in the shared counters.
func TestStackMetrics(t *testing.T) {
	p := core.Params20()
	iq, _ := testIQCapture(t, p, 2, "metrics")
	dec, err := core.NewDecoder(p, wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	st, err := NewStreaming(dec, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PushIQ(iq); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Drain()
	snap := m.Snapshot()
	if snap.SamplesIn != uint64(len(iq)) {
		t.Errorf("SamplesIn %d, want %d", snap.SamplesIn, len(iq))
	}
	if snap.PhasesProduced == 0 {
		t.Error("PhasesProduced is zero")
	}
	if snap.FramesDecoded != 1 {
		t.Errorf("FramesDecoded %d, want 1", snap.FramesDecoded)
	}
	// A flushed stack refuses pushes before any work: nothing is
	// counted or timed.
	if err := st.PushIQ(make([]complex128, 4096)); !errors.Is(err, core.ErrFlushed) {
		t.Errorf("PushIQ after Flush: %v, want ErrFlushed", err)
	}
	if err := st.PushPhases(make([]float64, 4096)); !errors.Is(err, core.ErrFlushed) {
		t.Errorf("PushPhases after Flush: %v, want ErrFlushed", err)
	}
	if after := m.Snapshot(); !reflect.DeepEqual(after, snap) {
		t.Errorf("refused pushes changed the registry:\n got %+v\nwant %+v", after, snap)
	}
}
