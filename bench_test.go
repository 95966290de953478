package symbee

import (
	"testing"

	"symbee/internal/core"
	"symbee/internal/sim"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// Figure benches: each regenerates one table/figure of the paper's
// evaluation (reduced size; run cmd/symbeebench for full-size tables).
// The table is printed once so `go test -bench` output doubles as a
// compact reproduction record.

func benchFigure(b *testing.B, id string) {
	b.Helper()
	exp, err := sim.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{Seed: 1, Short: true}
	var rendered string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		rendered = t.Render()
	}
	b.StopTimer()
	if rendered != "" {
		b.Logf("\n%s", rendered)
	}
}

func BenchmarkFig06PairSearch(b *testing.B)    { benchFigure(b, "fig6") }
func BenchmarkFig07StablePhase(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig11Folding(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12BERvsSNR(b *testing.B)      { benchFigure(b, "fig12") }
func BenchmarkFig12BERvsSNR40MHz(b *testing.B) { benchFigure(b, "fig12-40mhz") }
func BenchmarkFig13Throughput(b *testing.B)    { benchFigure(b, "fig13") }
func BenchmarkFig14BER(b *testing.B)           { benchFigure(b, "fig14") }
func BenchmarkFig16Comparison(b *testing.B)    { benchFigure(b, "fig16") }
func BenchmarkFig17Constellation(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18NLOS(b *testing.B)          { benchFigure(b, "fig18") }
func BenchmarkFig19TxPower(b *testing.B)       { benchFigure(b, "fig19") }
func BenchmarkFig20Interference(b *testing.B)  { benchFigure(b, "fig20") }
func BenchmarkFig21Hamming(b *testing.B)       { benchFigure(b, "fig21") }
func BenchmarkFig22Tau(b *testing.B)           { benchFigure(b, "fig22a") }
func BenchmarkFig22Preamble(b *testing.B)      { benchFigure(b, "fig22b") }
func BenchmarkFig23Mobility(b *testing.B)      { benchFigure(b, "fig23") }

// System-level benches beyond the paper's figures.

func BenchmarkNonIntrusiveness(b *testing.B)     { benchFigure(b, "nonintrusive") }
func BenchmarkConvergecast(b *testing.B)         { benchFigure(b, "convergecast") }
func BenchmarkLightweightDecoding(b *testing.B)  { benchFigure(b, "lightweight") }
func BenchmarkCTCInterferenceSweep(b *testing.B) { benchFigure(b, "ctc-sweep") }
func BenchmarkAblationSoftDecision(b *testing.B) { benchFigure(b, "ablation-soft") }

// Ablation benches for the design choices called out in DESIGN.md.

func BenchmarkAblationSymbolPairs(b *testing.B)      { benchFigure(b, "ablation-pairs") }
func BenchmarkAblationPreambleReps(b *testing.B)     { benchFigure(b, "ablation-preamble") }
func BenchmarkAblationCaptureThreshold(b *testing.B) { benchFigure(b, "ablation-threshold") }
func BenchmarkAblationSampleRate(b *testing.B)       { benchFigure(b, "ablation-rate") }

// Hot-path micro-benchmarks: the per-packet cost of each pipeline stage.

func BenchmarkModulatorPacket(b *testing.B) {
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 110)
	ppdu, err := zigbee.BuildPPDU(payload)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(ppdu)*2*mod.SamplesPerSlot()*zigbee.ChipsPerSymbol), "samples/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := mod.ModulateBytes(ppdu)
		_ = sig
	}
}

func BenchmarkPhaseStreamPacket(b *testing.B) {
	fe, err := wifi.NewFrontEnd(20e6)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		b.Fatal(err)
	}
	ppdu, err := zigbee.BuildPPDU(make([]byte, 110))
	if err != nil {
		b.Fatal(err)
	}
	sig := mod.ModulateBytes(ppdu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fe.PhaseStream(sig)
	}
}

func BenchmarkDecodeFramePacket(b *testing.B) {
	link, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := link.TransmitFrame(&core.Frame{Seq: 1, Data: []byte("0123456789")})
	if err != nil {
		b.Fatal(err)
	}
	phases := link.Phases(sig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.Decoder().DecodeFrame(phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapturePreamble(b *testing.B) {
	link, err := core.NewLink(core.Params20(), 0)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := link.TransmitBits(sim.AlternatingBits(100))
	if err != nil {
		b.Fatal(err)
	}
	phases := link.Phases(sig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.Decoder().CapturePreamble(phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndPacket(b *testing.B) {
	// Full TX→channel→RX round trip for one 100-bit packet at 10 dB.
	link, err := NewLink(Params20(), CanonicalCompensation)
	if err != nil {
		b.Fatal(err)
	}
	bits := sim.AlternatingBits(100)
	sig, err := link.TransmitBits(bits)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{Scenario: "office", Distance: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bits) / 8))
	lost := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capture, err := ch.Transmit(sig)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := link.ReceiveBits(capture, len(bits)); err != nil {
			// Occasional deep shadowing fades lose a packet — part of
			// the workload, not a bench failure.
			lost++
		}
	}
	b.ReportMetric(float64(lost)/float64(b.N), "lost/op")
}

func BenchmarkZigBeeDemodulatePacket(b *testing.B) {
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		b.Fatal(err)
	}
	demod, err := zigbee.NewDemodulator(20e6)
	if err != nil {
		b.Fatal(err)
	}
	ppdu, err := zigbee.BuildPPDU(make([]byte, 60))
	if err != nil {
		b.Fatal(err)
	}
	sig := mod.ModulateBytes(ppdu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := demod.ReceiveAt(sig, 0); err != nil {
			b.Fatal(err)
		}
	}
}
