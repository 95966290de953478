package link

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/trace"
	"symbee/internal/wifi"
)

// -update regenerates the committed golden fixtures: the traces are
// rebuilt from their seeded recipes and the expected frames re-derived
// through the REFERENCE batch entrypoint (core.Decoder.DecodeFrame).
// Normal runs only read the committed files, so the test pins the link
// stack against history, not against itself.
var update = flag.Bool("update", false, "regenerate golden trace fixtures")

// goldenChunks are the ingest chunk sizes every fixture must decode
// bit-identically at (0 is replaced by the whole capture).
var goldenChunks = []int{1, 7, 64, 1024, 0}

// goldenFrame is the byte-exact expected decode.
type goldenFrame struct {
	Seq   byte   `json:"seq"`
	Flags byte   `json:"flags"`
	Data  string `json:"data_hex"`
}

// goldenCase is one committed fixture in golden.json.
type goldenCase struct {
	// Trace is the .sbtr fixture file name in testdata.
	Trace string `json:"trace"`
	// Description says what channel the capture went through.
	Description string `json:"description"`
	// Compensation is the receiver CFO compensation for this capture.
	Compensation float64 `json:"compensation"`
	// Frame is the expected decode, derived by the reference batch
	// entrypoint when the fixture was generated.
	Frame goldenFrame `json:"frame"`
}

const goldenDir = "testdata"

// generateGolden rebuilds every fixture from its seeded recipe.
func generateGolden(t *testing.T) []goldenCase {
	t.Helper()
	p := core.Params20()
	phy, err := core.NewLink(p, 0)
	if err != nil {
		t.Fatal(err)
	}

	var cases []goldenCase
	write := func(name, desc string, comp float64, tr *trace.Trace) {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		phases := tracePhases(t, tr)
		dec, err := core.NewDecoder(p, comp)
		if err != nil {
			t.Fatal(err)
		}
		// The REFERENCE decode: the historical batch entrypoint.
		frame, err := dec.DecodeFrame(phases)
		if err != nil {
			t.Fatalf("%s: reference decode failed: %v", name, err)
		}
		cases = append(cases, goldenCase{
			Trace:        name,
			Description:  desc,
			Compensation: comp,
			Frame: goldenFrame{
				Seq:   frame.Seq,
				Flags: frame.Flags,
				Data:  hex.EncodeToString(frame.Data),
			},
		})
	}

	// Fixture 1: clean baseband capture, stored as the phase stream the
	// WiFi front end would produce (KindPhase input path).
	sig, err := phy.TransmitFrame(&core.Frame{Seq: 7, Data: []byte("golden")})
	if err != nil {
		t.Fatal(err)
	}
	write("clean_phase.sbtr", "clean baseband frame, phase-kind trace", 0,
		&trace.Trace{Kind: trace.KindPhase, SampleRate: p.SampleRate, Phases: phy.Phases(sig)})

	// Fixture 2: the same PHY through a noisy offset channel, stored as
	// IQ (KindIQ input path, canonical compensation at the receiver).
	sig2, err := phy.TransmitFrame(&core.Frame{Seq: 12, Flags: 0x0A, Data: []byte("noisy!")})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	med, err := channel.NewMedium(channel.Config{
		SampleRate: p.SampleRate,
		SNRdB:      12,
		FreqOffset: channel.DefaultFreqOffset,
		Pad:        1500,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	write("noisy_cfo_iq.sbtr", "12 dB SNR, +3 MHz CFO, padded IQ trace", wifi.CanonicalCompensation,
		&trace.Trace{Kind: trace.KindIQ, SampleRate: p.SampleRate, IQ: med.Transmit(sig2)})

	out, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "golden.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	return cases
}

// tracePhases converts a fixture to the receiver phase stream. Batch
// phase extraction is compensation-free here; the decoder applies its
// own compensation, mirroring the production paths.
func tracePhases(t *testing.T, tr *trace.Trace) []float64 {
	t.Helper()
	switch tr.Kind {
	case trace.KindPhase:
		return tr.Phases
	case trace.KindIQ:
		phy, err := core.NewLink(core.Params20(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return phy.Phases(tr.IQ)
	}
	t.Fatalf("unknown trace kind %d", tr.Kind)
	return nil
}

func loadGolden(t *testing.T) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, "golden.json"))
	if err != nil {
		t.Fatalf("golden fixtures missing (regenerate with -update): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

func wantFrame(t *testing.T, g goldenFrame) *core.Frame {
	t.Helper()
	data, err := hex.DecodeString(g.Data)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Frame{Seq: g.Seq, Flags: g.Flags, Data: data}
}

func checkFrame(t *testing.T, label string, got, want *core.Frame) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no frame decoded", label)
	}
	if got.Seq != want.Seq || got.Flags != want.Flags || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("%s: frame seq=%d flags=%#x data=%x, want seq=%d flags=%#x data=%x",
			label, got.Seq, got.Flags, got.Data, want.Seq, want.Flags, want.Data)
	}
}

// TestGoldenTraceEquivalence is the bit-exactness regression gate of the
// layered refactor: every committed fixture must decode byte-for-byte
// identically through (a) the historical reference entrypoint, (b) a
// chunk-fed batch stack at every golden chunk size (including the whole
// capture in one push), and (c) — for IQ fixtures — the streaming
// preset at every golden chunk size.
func TestGoldenTraceEquivalence(t *testing.T) {
	var cases []goldenCase
	if *update {
		cases = generateGolden(t)
	} else {
		cases = loadGolden(t)
	}
	for _, tc := range cases {
		t.Run(tc.Trace, func(t *testing.T) {
			tr, err := trace.Load(filepath.Join(goldenDir, tc.Trace))
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewParams(tr.SampleRate)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.NewDecoder(p, tc.Compensation)
			if err != nil {
				t.Fatal(err)
			}
			want := wantFrame(t, tc.Frame)
			phases := tracePhases(t, tr)

			ref, err := dec.DecodeFrame(phases)
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			checkFrame(t, "reference", ref, want)

			for _, chunk := range goldenChunks {
				n := chunk
				if n == 0 {
					n = len(phases)
				}
				st, err := NewBatch(dec, nil)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(phases); off += n {
					end := off + n
					if end > len(phases) {
						end = len(phases)
					}
					if err := st.PushPhases(phases[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				checkFrame(t, "batch stack", firstFrame(st.Drain()), want)

				if tr.Kind != trace.KindIQ {
					continue
				}
				srx, err := NewStreaming(dec, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(tr.IQ); off += n {
					end := off + n
					if end > len(tr.IQ) {
						end = len(tr.IQ)
					}
					if err := srx.PushIQ(tr.IQ[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				if err := srx.Flush(); err != nil {
					t.Fatal(err)
				}
				checkFrame(t, "streaming stack", firstFrame(srx.Drain()), want)
			}
		})
	}
}

func firstFrame(events []Event) *core.Frame {
	for _, ev := range events {
		if ev.Kind == core.EventFrame {
			return ev.Frame
		}
	}
	return nil
}
