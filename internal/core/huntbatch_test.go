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
// everything that influences future events.
type huntState struct {
	Cands     []foldCandidate
	BestMean  float64
	BestIdx   int
	Remaining int
	Done      bool
	State     MachineState
}

func captureHuntState(m *FrameMachine) huntState {
	return huntState{
		Cands:     append([]foldCandidate(nil), m.scan.cands...),
		BestMean:  m.scan.bestMean,
		BestIdx:   m.scan.bestIdx,
		Remaining: m.scan.remaining,
		Done:      m.scan.done,
		State:     m.state,
	}
}

// replayHunt feeds phases through a fresh machine in chunks, with the
// hunt path selected, and returns the flattened events plus the final
// scanner state.
func replayHunt(t *testing.T, d *Decoder, phases []float64, chunk int, scalar bool) ([]huntEvent, huntState) {
	t.Helper()
	m := mustMachine(t, d)
	m.scalarHunt = scalar
	var events []huntEvent
	for off := 0; off < len(phases); off += chunk {
		end := off + chunk
		if end > len(phases) {
			end = len(phases)
		}
		if err := m.PushChunk(phases[off:end]); err != nil {
			t.Fatal(err)
		}
		events = append(events, flattenEvents(m.Events())...)
	}
	m.Flush()
	events = append(events, flattenEvents(m.Events())...)
	return events, captureHuntState(m)
}

// huntCaptures builds the randomized scenario set: pure noise (the
// idle-listening state the batch kernel exists for), a clean frame, a
// noisy frame, and back-to-back frames with idle gaps — each as a
// compensated phase stream.
func huntCaptures(t *testing.T) map[string][]float64 {
	t.Helper()
	p := Params20()
	rng := rand.New(rand.NewSource(77))
	l := mustLink(t, p, wifi.CanonicalCompensation)

	captures := make(map[string][]float64)

	// Truly idle noise: full-circle uniform phase diffs, mean zero even
	// after compensation — the pre-gate skips almost every segment.
	idle := make([]float64, 300000)
	for i := range idle {
		idle[i] = (2*rng.Float64() - 1) * math.Pi
	}
	captures["noise-idle"] = idle

	// Hot noise: half-amplitude uniform phases that the compensation
	// shift biases off zero, driving constant false locks, decode
	// errors and rearms — the gate almost never fires and the paths
	// churn through lock handoffs.
	hot := make([]float64, 300000)
	for i := range hot {
		hot[i] = (2*rng.Float64() - 1) * math.Pi / 2
	}
	captures["noise-hot"] = hot

	frame := func(name string, snr float64, pad int, frames ...*Frame) {
		var phases []float64
		for _, f := range frames {
			sig, err := l.TransmitFrame(f)
			if err != nil {
				t.Fatal(err)
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
		captures[name] = phases
	}
	frame("frame-clean", 30, 2500, &Frame{Seq: 5, Flags: 1, Data: []byte("hunt")})
	frame("frame-noisy", 3, 4000, &Frame{Seq: 6, Data: []byte("low snr")})
	frame("frames-gapped", 12, 6000,
		&Frame{Seq: 7, Data: []byte("one")},
		&Frame{Seq: 8, Data: []byte("two")},
		&Frame{Seq: 9, Data: []byte("three")})
	return captures
}

// TestHuntBatchZeroAlloc pins the allocation budget of the batched
// hunt path: once warm, pushing noise chunks through a hunting machine
// — gate evaluations, segment skips, deferred frontier tails and all —
// allocates nothing.
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
// batched idle-hunt kernel: over noise-only and frame-bearing streams,
// at every chunk size down to one sample, the batched path emits
// exactly the events of the per-sample reference path and leaves the
// scanner in the same decision state.
func TestHuntScalarBatchEquivalence(t *testing.T) {
	d := mustLink(t, Params20(), wifi.CanonicalCompensation).Decoder()
	for name, phases := range huntCaptures(t) {
		t.Run(name, func(t *testing.T) {
			wantEvents, wantState := replayHunt(t, d, phases, len(phases), true)
			for _, chunk := range []int{1, 7, 64, 1024, len(phases)} {
				gotEvents, gotState := replayHunt(t, d, phases, chunk, false)
				if !reflect.DeepEqual(gotEvents, wantEvents) {
					t.Errorf("chunk %d: batched events diverge from scalar reference\n got: %+v\nwant: %+v",
						chunk, gotEvents, wantEvents)
				}
				if !reflect.DeepEqual(gotState, wantState) {
					t.Errorf("chunk %d: batched scanner state diverges\n got: %+v\nwant: %+v",
						chunk, gotState, wantState)
				}
				// The scalar path must itself be chunk-invariant with the
				// re-anchor schedule in place.
				scalarEvents, scalarState := replayHunt(t, d, phases, chunk, true)
				if !reflect.DeepEqual(scalarEvents, wantEvents) || !reflect.DeepEqual(scalarState, wantState) {
					t.Errorf("chunk %d: scalar path not chunk-invariant", chunk)
				}
			}
		})
	}
}
