package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/wifi"
)

// huntEvent is a StreamEvent flattened for DeepEqual: frames by value,
// errors by message.
type huntEvent struct {
	Kind   StreamEventKind
	Anchor int
	End    int
	Seq    uint8
	Flags  uint8
	Data   string
	Err    string
}

func flattenEvents(events []StreamEvent) []huntEvent {
	out := make([]huntEvent, 0, len(events))
	for _, e := range events {
		h := huntEvent{Kind: e.Kind, Anchor: e.Anchor, End: e.End}
		if e.Frame != nil {
			h.Seq = e.Frame.Seq
			h.Flags = e.Frame.Flags
			h.Data = string(e.Frame.Data)
		}
		if e.Err != nil {
			h.Err = e.Err.Error()
		}
		out = append(out, h)
	}
	return out
}

// huntState captures the scanner decision state a hunt leaves behind:
// everything that influences future events, and the scan position.
type huntState struct {
	Pos       int
	Cands     []foldCandidate
	BestMean  float64
	BestIdx   int
	Remaining int
	Done      bool
	State     MachineState
}

func captureHuntState(m *FrameMachine) huntState {
	return huntState{
		Pos:       m.scan.i,
		Cands:     append([]foldCandidate(nil), m.scan.cands...),
		BestMean:  m.scan.bestMean,
		BestIdx:   m.scan.bestIdx,
		Remaining: m.scan.remaining,
		Done:      m.scan.done,
		State:     m.state,
	}
}

// huntReplay is what one chunked replay of a stream leaves behind.
type huntReplay struct {
	events []huntEvent
	state  huntState
	// done holds the scanner state at each completion, read after every
	// push while the scanner is done (repeats of a scan position
	// dropped). Its Pos is where rearm resumes hunting after a decode
	// error, and its candidates carry every fold mean bit for bit.
	done []huntState
}

// huntMachine is what a replay drives: the production FrameMachine or
// the reference refMachine.
type huntMachine interface {
	PushChunk(phases []float64) error
	Flush()
	Events() []StreamEvent
}

// replayHunt feeds phases through a fresh production machine and a
// fresh reference machine in chunks of one size.
func replayHunt(t *testing.T, d *Decoder, phases []float64, chunk int) (batch, ref huntReplay) {
	t.Helper()
	return replayHuntCuts(t, d, phases, func(int) int { return chunk })
}

// replayHuntCuts feeds phases, chunk k holding cut(k) phases, through a
// fresh production machine and through a fresh reference machine
// (scanref_test.go), and returns for each the flattened events, the
// final scanner state and the state at each completion.
func replayHuntCuts(t *testing.T, d *Decoder, phases []float64, cut func(k int) int) (batch, ref huntReplay) {
	t.Helper()
	m := mustMachine(t, d)
	rm := newRefMachine(d)
	return replayMachine(t, m, m, phases, cut), replayMachine(t, rm, rm.FrameMachine, phases, cut)
}

// replayMachine feeds phases through drv at the given cuts, reading the
// scanner and stage from m, the machine drv runs.
func replayMachine(t *testing.T, drv huntMachine, m *FrameMachine, phases []float64, cut func(k int) int) huntReplay {
	t.Helper()
	var r huntReplay
	record := func() {
		r.events = append(r.events, flattenEvents(drv.Events())...)
		if m.scan.done && (len(r.done) == 0 || r.done[len(r.done)-1].Pos != m.scan.i) {
			r.done = append(r.done, captureHuntState(m))
		}
	}
	for off, k := 0, 0; off < len(phases); k++ {
		end := off + cut(k)
		if end > len(phases) {
			end = len(phases)
		}
		if err := drv.PushChunk(phases[off:end]); err != nil {
			t.Fatal(err)
		}
		record()
		off = end
	}
	drv.Flush()
	record()
	r.state = captureHuntState(m)
	return r
}

// huntCase is one equivalence input: a phase stream and the decoder
// that replays it.
type huntCase struct {
	d      *Decoder
	phases []float64
}

// transmitPhases sends frames through independent AWGN channels at
// the default carrier offset, one frame each at an SNR drawn from
// [snrLo, snrHi] dB with a noise pad drawn from [padLo, padHi] samples
// on both sides, and returns the concatenated raw phase streams: frames
// back to back, separated by the two pads between them. A range with
// equal ends draws nothing from rng.
func transmitPhases(t testing.TB, l *Link, rng *rand.Rand, snrLo, snrHi float64, padLo, padHi int, frames ...*Frame) []float64 {
	t.Helper()
	p := l.Params()
	var phases []float64
	for _, f := range frames {
		sig, err := l.TransmitFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		snr, pad := snrLo, padLo
		if snrHi > snrLo {
			snr += (snrHi - snrLo) * rng.Float64()
		}
		if padHi > padLo {
			pad += rng.Intn(padHi - padLo + 1)
		}
		med, err := channel.NewMedium(channel.Config{
			SampleRate: p.SampleRate,
			SNRdB:      snr,
			FreqOffset: channel.DefaultFreqOffset,
			Pad:        pad,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, l.Phases(med.Transmit(sig))...)
	}
	return phases
}

// huntCaptures builds the randomized scenario set: pure noise (the
// idle-listening state), a clean frame, a noisy frame, frames with idle
// gaps and tightly back to back, a clean frame cut inside its fold
// warm-up and inside its refinement span, a compensation-0 stream of
// signed-zero runs around a biased region, and a compensation-0 stream
// with an out-of-range spike.
func huntCaptures(t *testing.T) map[string]huntCase {
	t.Helper()
	p := Params20()
	rng := rand.New(rand.NewSource(77))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	d := l.Decoder()

	captures := make(map[string]huntCase)

	// Truly idle noise: full-circle uniform phase diffs, mean zero even
	// after compensation, so the hunt never locks.
	idle := make([]float64, 300000)
	for i := range idle {
		idle[i] = (2*rng.Float64() - 1) * math.Pi
	}
	captures["noise-idle"] = huntCase{d, idle}

	// Hot noise: half-amplitude uniform phases that the compensation
	// shift biases off zero, driving constant false locks, decode
	// errors and rearms, each lock running its whole refinement span.
	hot := make([]float64, 300000)
	for i := range hot {
		hot[i] = (2*rng.Float64() - 1) * math.Pi / 2
	}
	captures["noise-hot"] = huntCase{d, hot}

	frame := func(name string, snr float64, pad int, frames ...*Frame) []float64 {
		phases := transmitPhases(t, l, rng, snr, snr, pad, pad, frames...)
		captures[name] = huntCase{d, phases}
		return phases
	}
	clean := frame("frame-clean", 30, 2500, &Frame{Seq: 5, Flags: 1, Data: []byte("hunt")})
	frame("frame-noisy", 3, 4000, &Frame{Seq: 6, Data: []byte("low snr")})
	frame("frames-gapped", 12, 6000,
		&Frame{Seq: 7, Data: []byte("one")},
		&Frame{Seq: 8, Data: []byte("two")},
		&Frame{Seq: 9, Data: []byte("three")})

	// Back to back at 10–16 dB with 2,000–6,000-sample gaps: each
	// rearm's fold warm-up lands just before the next preamble.
	var tight []*Frame
	for k := 0; k < 6; k++ {
		data := make([]byte, rng.Intn(MaxDataBytes+1))
		rng.Read(data)
		tight = append(tight, &Frame{Seq: uint8(10 + k), Data: data})
	}
	captures["frames-back-to-back"] = huntCase{d, transmitPhases(t, l, rng, 10, 16, 1000, 3000, tight...)}

	// The clean frame cut (and flushed) inside the fold warm-up, at
	// either side of the first fold anchor, and inside the refinement
	// span the lock opens.
	sc := newRefScanner(d)
	prepared := d.prepare(clean)
	for _, phi := range prepared {
		if sc.push(phi); sc.locked() {
			break
		}
	}
	if !sc.locked() {
		t.Fatal("clean frame never locked")
	}
	foldSpan := PreambleBits * p.BitPeriod
	for name, n := range map[string]int{
		"cut-100":        100,
		"cut-foldspan-1": foldSpan - 1,
		"cut-foldspan":   foldSpan,
		"cut-refinement": sc.i + 5000,
	} {
		captures["frame-clean-"+name] = huntCase{d, clean[:n]}
	}

	// Compensation 0: runs of −0 and +0 (the kernel's fold taps and the
	// reference's 0-seeded sum disagree on the sign of an all-zero sum)
	// around a biased region that locks.
	d0, err := NewDecoder(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var zeros []float64
	zeroRuns := func(n int) {
		for len(zeros) < n {
			z := 0.0
			if rng.Intn(2) == 0 {
				z = math.Copysign(0, -1)
			}
			for run := 1 + rng.Intn(1500); run > 0; run-- {
				zeros = append(zeros, z)
			}
		}
	}
	zeroRuns(15000)
	for i := 0; i < 12000; i++ {
		zeros = append(zeros, (1.25*rng.Float64()-0.25)*math.Pi)
	}
	zeroRuns(len(zeros) + 40000)
	captures["signed-zeros-comp0"] = huntCase{d0, zeros}

	// Compensation 0 passes phases through unwrapped, so the scan sees
	// any float64. Two spikes far outside [−π, π], two phases apart,
	// lift the fold mean over the threshold at only two consecutive
	// anchors per fold tap, which a scan that skips or decimates
	// anchors misses; the reference locks at anchor 2,094.
	spike := make([]float64, 20000)
	spike[4097], spike[4099] = 1000, -1000
	captures["spike-comp0"] = huntCase{d0, spike}
	return captures
}

// TestHuntBatchZeroAlloc pins the allocation budget of the batched
// hunt path: once warm, pushing noise chunks through a hunting machine
// — re-anchors and history trims included — allocates nothing.
func TestHuntBatchZeroAlloc(t *testing.T) {
	d := mustLink(t, Params20(), wifi.CanonicalCompensation).Decoder()
	m := mustMachine(t, d)
	rng := rand.New(rand.NewSource(41))
	chunk := make([]float64, 4096)
	// Idle-channel phase diffs are uniform over the whole circle: the
	// machine's constant compensation rotates but never biases them, so
	// the fold mean stays at noise level and the hunt never locks.
	refill := func() {
		for i := range chunk {
			chunk[i] = (2*rng.Float64() - 1) * math.Pi
		}
	}
	for warm := 0; warm < 50; warm++ {
		refill()
		if err := m.PushChunk(chunk); err != nil {
			t.Fatal(err)
		}
		m.Events()
	}
	allocs := testing.AllocsPerRun(100, func() {
		refill()
		if err := m.PushChunk(chunk); err != nil {
			t.Fatal(err)
		}
		m.Events()
	})
	if allocs != 0 {
		t.Fatalf("batched hunt path allocates %.1f per push, want 0", allocs)
	}
	if m.State() != StateHunting {
		t.Fatalf("noise drove the machine out of hunting: %v", m.State())
	}
}

// TestHuntScalarBatchEquivalence pins the tentpole guarantee of the
// batched hunt kernel: over noise-only and frame-bearing streams, at
// every chunk size down to one sample, the batched path emits exactly
// the events of the per-sample reference path, completes its scans at
// the same stream positions and leaves the scanner in the same decision
// state.
func TestHuntScalarBatchEquivalence(t *testing.T) {
	for name, c := range huntCaptures(t) {
		t.Run(name, func(t *testing.T) {
			_, want := replayHunt(t, c.d, c.phases, len(c.phases))
			var wantDone []huntState
			for _, chunk := range []int{1, 7, 64, 1024, 4096, len(c.phases)} {
				got, scalar := replayHunt(t, c.d, c.phases, chunk)
				if !reflect.DeepEqual(got.events, want.events) {
					t.Errorf("chunk %d: batched events diverge from scalar reference\n got: %+v\nwant: %+v",
						chunk, got.events, want.events)
				}
				if !reflect.DeepEqual(got.state, want.state) {
					t.Errorf("chunk %d: batched scanner state diverges\n got: %+v\nwant: %+v",
						chunk, got.state, want.state)
				}
				// The reference must itself be chunk-invariant with the
				// re-anchor schedule in place.
				if !reflect.DeepEqual(scalar.events, want.events) || !reflect.DeepEqual(scalar.state, want.state) {
					t.Errorf("chunk %d: scalar path not chunk-invariant", chunk)
				}
				// Up to 4096 phases a chunk, every completion is seen
				// while the machine waits for its selection or decode
				// coverage, so the lists are complete and comparable.
				if chunk > 4096 {
					continue
				}
				if !reflect.DeepEqual(got.done, scalar.done) {
					t.Errorf("chunk %d: batched scan completions diverge\n got: %+v\nwant: %+v", chunk, got.done, scalar.done)
				}
				if wantDone == nil {
					wantDone = scalar.done
				} else if !reflect.DeepEqual(scalar.done, wantDone) {
					t.Errorf("chunk %d: scalar completions not chunk-invariant", chunk)
				}
			}
		})
	}
}

// TestHuntGateNaNPhases pins that a NaN phase in a lock's arms loses
// no lock. Over ten preamble offsets R, four bit-period-spaced runs of
// +π in a stream of −π lift the fold mean over the threshold at the
// anchor just before the first fold sum holding the NaN enters the
// window; from there the window sum is NaN until a re-anchor drops it.
// The per-sample reference locks at R−35, and the batched scan must
// emit the same events and leave the same scanner state at every
// chunking.
func TestHuntGateNaNPhases(t *testing.T) {
	d, err := NewDecoder(Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Params()
	for r := 1003; r <= 1039; r += 4 {
		phases := make([]float64, 8000)
		for i := range phases {
			phases[i] = -math.Pi
		}
		for k := 0; k < PreambleBits; k++ {
			for i := r + k*p.BitPeriod; i < r+k*p.BitPeriod+55; i++ {
				phases[i] = math.Pi
			}
		}
		phases[r+49+3*p.BitPeriod] = math.NaN()
		_, want := replayHunt(t, d, phases, len(phases))
		if len(want.events) == 0 || want.events[0].Kind != EventLock || want.events[0].Anchor != r-35 {
			t.Fatalf("R=%d: reference events %+v, want a lock at %d", r, want.events, r-35)
		}
		for _, chunk := range []int{1, 1000, len(phases)} {
			got, _ := replayHunt(t, d, phases, chunk)
			if !reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.state, want.state) {
				t.Errorf("R=%d chunk %d: batched %+v %+v, reference %+v %+v",
					r, chunk, got.events, got.state, want.events, want.state)
			}
		}
	}
}

// TestHuntRearmBehindScanPosition pins rearm's clamp of the restart
// point to the scan position. A bounded machine hunts long enough for
// trim to cut its history, is re-armed at stream index 0, behind both
// the cut and the scan position, and is then fed a frame: it must
// resume at the scan position and emit exactly what a machine that was
// never re-armed emits.
func TestHuntRearmBehindScanPosition(t *testing.T) {
	p := Params20()
	rng := rand.New(rand.NewSource(23))
	l := mustLink(t, p, wifi.CanonicalCompensation)
	d := l.Decoder()
	idle := make([]float64, 4*defaultRetention(p))
	for i := range idle {
		idle[i] = (2*rng.Float64() - 1) * math.Pi
	}
	frame := transmitPhases(t, l, rng, 20, 20, 6000, 6000, &Frame{Seq: 4, Data: []byte("rearm")})
	run := func(rearm bool) []huntEvent {
		m := mustMachine(t, d)
		var events []StreamEvent
		push := func(phases []float64) {
			for off := 0; off < len(phases); off += 4096 {
				if err := m.PushChunk(phases[off:min(off+4096, len(phases))]); err != nil {
					t.Fatal(err)
				}
				events = append(events, m.Events()...)
			}
		}
		push(idle)
		if rearm {
			if m.base == 0 || m.state != StateHunting || m.scan.locked() {
				t.Fatalf("before the re-arm: base %d, state %v, locked %v; want cut history and an unlocked hunt",
					m.base, m.state, m.scan.locked())
			}
			pos := m.scan.i
			m.rearm(0)
			if m.scan.i != pos {
				t.Fatalf("rearm(0) resumed at %d, want the scan position %d", m.scan.i, pos)
			}
		}
		push(frame)
		m.Flush()
		return flattenEvents(append(events, m.Events()...))
	}
	want := run(false)
	decoded := false
	for _, e := range want {
		decoded = decoded || e.Kind == EventFrame && e.Data == "rearm"
	}
	if !decoded {
		t.Fatalf("un-re-armed machine: events %+v, want the frame among them", want)
	}
	if got := run(true); !reflect.DeepEqual(got, want) {
		t.Errorf("re-armed behind the scan position: events %+v, want %+v", got, want)
	}
}
