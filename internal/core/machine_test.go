package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/wifi"
)

// mustMachine builds a streaming machine or fails the test.
func mustMachine(t testing.TB, d *Decoder) *FrameMachine {
	t.Helper()
	m, err := d.NewFrameMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pushChunked feeds phases through a fresh streaming machine in chunks
// of the given size and returns every event.
func pushChunked(t *testing.T, d *Decoder, phases []float64, chunk int) []StreamEvent {
	t.Helper()
	m := mustMachine(t, d)
	var events []StreamEvent
	for off := 0; off < len(phases); off += chunk {
		end := off + chunk
		if end > len(phases) {
			end = len(phases)
		}
		m.PushChunk(phases[off:end])
		events = append(events, m.Events()...)
	}
	m.Flush()
	return append(events, m.Events()...)
}

func firstFrame(events []StreamEvent) *StreamEvent {
	for i := range events {
		if events[i].Kind == EventFrame {
			return &events[i]
		}
	}
	return nil
}

func TestFrameMachineMatchesBatchAcrossChunkSizes(t *testing.T) {
	p := Params20()
	rng := rand.New(rand.NewSource(21))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	f := &Frame{Seq: 9, Flags: 0x2, Data: []byte("machine!")}
	sig, err := l.TransmitFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, snr := range []float64{30, 2} {
		m, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      snr,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        400,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases := l.Phases(m.Transmit(sig))
		want, batchErr := l.Decoder().DecodeFrame(phases)
		if batchErr != nil {
			t.Fatalf("snr %v: batch decode failed: %v", snr, batchErr)
		}
		for _, chunk := range []int{1, 7, 100, 4096, len(phases)} {
			events := pushChunked(t, l.Decoder(), phases, chunk)
			ev := firstFrame(events)
			if ev == nil {
				t.Fatalf("snr %v chunk %d: no frame event (events: %+v)", snr, chunk, events)
			}
			got := ev.Frame
			if got.Seq != want.Seq || got.Flags != want.Flags || !bytes.Equal(got.Data, want.Data) {
				t.Errorf("snr %v chunk %d: frame %+v, want %+v", snr, chunk, got, want)
			}
		}
	}
}

// TestBatchMatchesStreamingMultiFrame pins the one relation between
// batch and streaming decoding: both run the same bounded machine, so a
// multi-frame capture pushed whole and flushed emits exactly the events
// of the capture pushed in chunks, including the decode errors after a
// re-arm, and DecodeFrame reports the first terminal event of the whole
// push.
func TestBatchMatchesStreamingMultiFrame(t *testing.T) {
	captures := huntCaptures(t)
	for _, name := range []string{"frames-gapped", "frames-back-to-back", "noise-hot"} {
		c := captures[name]
		t.Run(name, func(t *testing.T) {
			whole := flattenEvents(pushChunked(t, c.d, c.phases, len(c.phases)))
			var first *huntEvent
			terminal := 0
			for i, e := range whole {
				if e.Kind == EventFrame || e.Kind == EventDecodeError {
					if first == nil {
						first = &whole[i]
					}
					terminal++
				}
			}
			if terminal < 2 {
				t.Fatalf("whole push: %d terminal events, want a re-arm and more: %+v", terminal, whole)
			}
			// DecodeFrame reports no anchor, so compare everything else.
			want := *first
			want.Anchor, want.End = 0, 0
			got := huntEvent{Kind: EventDecodeError}
			if frame, err := c.d.DecodeFrame(c.phases); err != nil {
				got.Err = err.Error()
			} else {
				got = huntEvent{Kind: EventFrame, Seq: frame.Seq, Flags: frame.Flags, Data: string(frame.Data)}
			}
			if got != want {
				t.Errorf("DecodeFrame: %+v, want the whole push's first terminal event %+v", got, *first)
			}
			for _, chunk := range []int{1000, 4096, 65536} {
				if got := flattenEvents(pushChunked(t, c.d, c.phases, chunk)); !reflect.DeepEqual(got, whole) {
					t.Errorf("chunk %d: events diverge from the whole push\n got: %+v\nwant: %+v", chunk, got, whole)
				}
			}
		})
	}
}

// TestChunkInvarianceAfterMaximalFrames pins the floor of the window
// candidate selection reads at the scanner's restart point. A maximal
// frame's decode fires less than a retention past its end, so a chunked
// push re-arms with the frame's tail still buffered, while a whole push
// has buffered far more and keeps history only from the re-arm point
// on. Hot noise straight after each frame locks at once, and without
// the floor the template stage reads back across the re-arm point into
// the frame's codewords in some chunkings and not in others.
func TestChunkInvarianceAfterMaximalFrames(t *testing.T) {
	p := Params20()
	rng := rand.New(rand.NewSource(1))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	var phases []float64
	for k := 0; k < 4; k++ {
		data := make([]byte, MaxDataBytes)
		rng.Read(data)
		phases = append(phases, transmitPhases(t, l, rng, 8, 20, 0, 0, &Frame{Seq: uint8(k), Data: data})...)
		amp := (0.3 + 0.4*rng.Float64()) * math.Pi
		for i := 0; i < 30000; i++ {
			phases = append(phases, (2*rng.Float64()-1)*amp)
		}
	}
	whole := flattenEvents(pushChunked(t, l.Decoder(), phases, len(phases)))
	for _, chunk := range []int{1, 7, 1000, 4096, 65536} {
		if got := flattenEvents(pushChunked(t, l.Decoder(), phases, chunk)); !reflect.DeepEqual(got, whole) {
			t.Errorf("chunk %d: events diverge from the whole push\n got: %+v\nwant: %+v", chunk, got, whole)
		}
	}
}

// TestSelectionFloor pins the floor of the window candidate selection
// reads (FrameMachine.selectionWindow). A frame follows 60,000 idle
// noise phases, so trim has cut the history many times before the
// lock. When the machine first waits in StateSelecting, the floor must
// be one stream index in every chunking. At 1-phase chunks it must also
// lie exactly 2 phases past the retained history's start: the last
// trim ran on the push before the lock, which ended one phase short of
// the phase completing the locking anchor, lockAnchor + foldSpan +
// StableLen − 2, and kept exactly the retention behind it; the floor is
// lockAnchor + foldSpan + StableLen less the retention.
func TestSelectionFloor(t *testing.T) {
	p := Params20()
	rng := rand.New(rand.NewSource(5))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	const idle = 60000
	phases := make([]float64, idle)
	for i := range phases {
		phases[i] = (2*rng.Float64() - 1) * math.Pi
	}
	// An all-zero header folds as strongly as the preamble, so
	// candidates run to the end of the refinement span and selection
	// waits for coverage well past the scan's completion.
	phases = append(phases, transmitPhases(t, l, rng, 20, 20, 2000, 2000, &Frame{})...)
	want := -1
	for _, chunk := range []int{1, 7, 64, 1024, 4096} {
		m := mustMachine(t, l.Decoder())
		for off := 0; off < len(phases) && m.State() != StateSelecting; off += chunk {
			if err := m.PushChunk(phases[off:min(off+chunk, len(phases))]); err != nil {
				t.Fatal(err)
			}
		}
		if m.State() != StateSelecting || m.scan.lockAnchor < idle {
			t.Fatalf("chunk %d: state %v, lock anchor %d; want a wait in selection on the frame's lock",
				chunk, m.State(), m.scan.lockAnchor)
		}
		floor := m.selectionWindow().base
		if chunk == 1 && floor != m.base+2 {
			t.Errorf("1-phase chunks: floor %d lies %d past the history start %d, want 2", floor, floor-m.base, m.base)
		}
		if want < 0 {
			want = floor
		} else if floor != want {
			t.Errorf("chunk %d: floor %d, want %d as at 1-phase chunks", chunk, floor, want)
		}
	}
}

func TestFrameMachineDecodesBackToBackFrames(t *testing.T) {
	// An always-on stream: several packets separated by idle noise must
	// each produce a frame event, in order.
	p := Params20()
	rng := rand.New(rand.NewSource(22))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	frames := []*Frame{
		{Seq: 1, Data: []byte("first")},
		{Seq: 2, Data: []byte("second")},
		{Seq: 3, Data: []byte("third")},
	}
	var phases []float64
	for _, f := range frames {
		sig, err := l.TransmitFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		med, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      20,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        2000,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, l.Phases(med.Transmit(sig))...)
	}
	m := mustMachine(t, l.Decoder())
	var got []*Frame
	for off := 0; off < len(phases); off += 4096 {
		end := off + 4096
		if end > len(phases) {
			end = len(phases)
		}
		m.PushChunk(phases[off:end])
		for _, ev := range m.Events() {
			if ev.Kind == EventFrame {
				got = append(got, ev.Frame)
			}
		}
	}
	m.Flush()
	for _, ev := range m.Events() {
		if ev.Kind == EventFrame {
			got = append(got, ev.Frame)
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i, f := range frames {
		if got[i].Seq != f.Seq || !bytes.Equal(got[i].Data, f.Data) {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], f)
		}
	}
}

func TestFrameMachineBoundedMemoryOnNoise(t *testing.T) {
	// Hunting over pure noise must not accumulate history: the retained
	// window stays at the configured retention bound.
	p := Params20()
	d, err := NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMachine(t, d)
	rng := rand.New(rand.NewSource(23))
	chunk := make([]float64, 4096)
	for i := 0; i < 200; i++ {
		for j := range chunk {
			chunk[j] = (rng.Float64()*2 - 1) * 3.14
		}
		m.PushChunk(chunk)
	}
	limit := defaultRetention(p) + len(chunk)
	if m.Buffered() > limit {
		t.Errorf("buffered %d phases on noise, want ≤ %d", m.Buffered(), limit)
	}
	if m.Pushed() != 200*len(chunk) {
		t.Errorf("pushed = %d", m.Pushed())
	}
}

func TestFrameMachineBuffersLongPushInPieces(t *testing.T) {
	// One push of a long capture is buffered a piece at a time, so the
	// history never holds the whole capture and a re-arm's trim copies
	// at most a piece plus the pinned window. Hot noise re-arms all the
	// way through.
	d, err := NewDecoder(Params20(), wifi.CanonicalCompensation)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	hot := make([]float64, 4*pushPiece)
	for i := range hot {
		hot[i] = (2*rng.Float64() - 1) * math.Pi / 2
	}
	m := mustMachine(t, d)
	if err := m.PushChunk(hot); err != nil {
		t.Fatal(err)
	}
	if c := cap(m.buf); c > 2*pushPiece {
		t.Errorf("history capacity %d after one %d-phase push, want ≤ %d", c, len(hot), 2*pushPiece)
	}
	if m.Pushed() != len(hot) {
		t.Errorf("pushed = %d, want %d", m.Pushed(), len(hot))
	}
}

func TestFrameMachineLockAndErrorEvents(t *testing.T) {
	// A preamble followed by a stream that ends mid-frame must produce a
	// lock event and a decode error (truncated), not silence.
	p := Params20()
	l := mustLink(t, p, 0)
	f := &Frame{Seq: 5, Data: []byte("0123456789")}
	sig, err := l.TransmitFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	anchor, err := l.Decoder().CapturePreamble(phases)
	if err != nil {
		t.Fatal(err)
	}
	cut := anchor + (PreambleBits+HeaderBits/2)*p.BitPeriod // mid-header
	events := pushChunked(t, l.Decoder(), phases[:cut], 512)
	var sawLock, sawError bool
	for _, ev := range events {
		switch ev.Kind {
		case EventLock:
			sawLock = true
		case EventFrame:
			t.Fatalf("truncated stream produced a frame: %+v", ev.Frame)
		case EventDecodeError:
			sawError = true
			if ev.Err == nil {
				t.Error("decode-error event with nil Err")
			}
		}
	}
	if !sawLock || !sawError {
		t.Errorf("sawLock=%v sawError=%v, want both", sawLock, sawError)
	}
}

func TestFrameMachineResetReuse(t *testing.T) {
	p := Params20()
	l := mustLink(t, p, 0)
	sig, err := l.TransmitFrame(&Frame{Seq: 1, Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	phases := l.Phases(sig)
	m := mustMachine(t, l.Decoder())
	run := func() int {
		m.PushChunk(phases)
		m.Flush()
		n := 0
		for _, ev := range m.Events() {
			if ev.Kind == EventFrame {
				n++
			}
		}
		return n
	}
	if n := run(); n != 1 {
		t.Fatalf("first run: %d frames", n)
	}
	m.Reset()
	if n := run(); n != 1 {
		t.Fatalf("after Reset: %d frames", n)
	}
}
