package sim

import (
	"fmt"
	"math"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// AblationSymbolPairs decodes with deliberately suboptimal codeword
// pairs to show (6,7)/(E,F) are the right choice: shorter stable runs
// shrink the voting window and collapse the noise margin.
func AblationSymbolPairs(opts Options) (*Table, error) {
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		return nil, err
	}
	fe, err := wifi.NewFrontEnd(20e6)
	if err != nil {
		return nil, err
	}
	pairs := []struct {
		label      string
		zero, one  []byte
		optimality string
	}{
		{"(6,7)/(E,F)", []byte{6, 7}, []byte{0xE, 0xF}, "SymBee (optimal)"},
		{"(5,6)/(D,E)", []byte{5, 6}, []byte{0xD, 0xE}, "shifted by one"},
		{"(0,1)/(8,9)", []byte{0, 1}, []byte{8, 9}, "arbitrary"},
	}
	t := &Table{
		Title:   "Ablation — codeword pair choice: stable-run length and phase separation",
		Note:    "run length bounds the voting window; |φ0−φ1| is the bit distinction\n(8π/5 ≈ 5.03 is the paper's maximum, §IV-A)",
		Columns: []string{"pair", "role", "bit0 run", "φ0/π", "bit1 run", "φ1/π", "|φ0−φ1|"},
	}
	for _, pr := range pairs {
		measure := func(symbols []byte) (int, float64) {
			ph := fe.PhaseStream(mod.ModulateSymbols(symbols))
			start, n := dsp.LongestStableRun(ph, 0.05)
			return n, ph[start]
		}
		run0, ph0 := measure(pr.zero)
		run1, ph1 := measure(pr.one)
		t.AddRow(pr.label, pr.optimality, run0, ph0/math.Pi, run1, ph1/math.Pi, math.Abs(ph0-ph1))
	}
	return t, nil
}

// AblationPreambleReps sweeps the preamble length: capture rate in deep
// noise versus the airtime overhead (the paper fixes 4 repetitions).
func AblationPreambleReps(opts Options) (*Table, error) {
	packets := opts.packets(40)
	p := core.Params20()
	t := &Table{
		Title:   "Ablation — preamble repetitions vs capture rate at −4 dB",
		Note:    "capture folds at the fixed depth of 4 bits (core.PreambleBits); overhead is preamble airtime",
		Columns: []string{"repetitions", "capture rate", "overhead (µs)"},
	}
	// The decoder folds at depth PreambleBits (fixed by the standard
	// frame layout); sweeping the transmitted repetitions shows how
	// much of the preamble the fold actually exploits. Fewer than
	// PreambleBits repetitions cannot be folded at all.
	for _, reps := range []int{4, 6, 8} {
		extra := reps - core.PreambleBits
		bits := make([]byte, extra+20)
		for i := extra; i < len(bits); i++ {
			bits[i] = byte(i % 2)
		}
		link, sig, err := newLink(p, bits)
		if err != nil {
			return nil, err
		}
		captured := 0
		err = eachPacket(sig, packets, opts.Seed+int64(reps), awgn(p, -4, 512), func(capture []complex128, _ channel.Config, _ *rand.Rand) {
			if _, err := link.Decoder().CapturePreamble(link.Phases(capture)); err == nil {
				captured++
			}
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(reps, float64(captured)/float64(packets), float64(reps)*p.BitDuration()*1e6)
	}
	return t, nil
}

// AblationCaptureThreshold sweeps the preamble detection threshold,
// exposing the sensitivity/false-capture trade-off that fixed the
// default at one fifth of the ideal fold magnitude.
func AblationCaptureThreshold(opts Options) (*Table, error) {
	packets := opts.packets(40)
	p := core.Params20()
	bits := AlternatingBits(30)
	t := &Table{
		Title:   "Ablation — preamble capture threshold (fraction of ideal fold magnitude)",
		Note:    "capture at −2 dB vs false captures on signal-free noise",
		Columns: []string{"threshold (frac)", "capture rate @ -2 dB", "false captures on noise"},
	}
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.5, 0.7} {
		link, sig, err := newLink(p, bits)
		if err != nil {
			return nil, err
		}
		link.Decoder().CaptureThreshold = float64(core.PreambleBits) * core.StablePhase * frac
		captured, falseCaptures := 0, 0
		err = eachPacket(sig, packets, opts.Seed+int64(frac*100), awgn(p, -2, 512), func(capture []complex128, _ channel.Config, rng *rand.Rand) {
			if _, err := link.Decoder().CapturePreamble(link.Phases(capture)); err == nil {
				captured++
			}
			// Signal-free capture attempt: pure noise.
			noise := make([]float64, 20000)
			for j := range noise {
				noise[j] = (rng.Float64()*2 - 1) * 3.14159
			}
			if _, err := link.Decoder().CapturePreamble(noise); err == nil {
				falseCaptures++
			}
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.1f", frac), float64(captured)/float64(packets), falseCaptures)
	}
	return t, nil
}

// AblationSampleRate contrasts 20 and 40 Msps reception at equal SNR:
// the doubled stable window at 40 MHz tolerates twice the errors
// (§VI-B).
func AblationSampleRate(opts Options) (*Table, error) {
	packets := opts.packets(40)
	bits := AlternatingBits(50)
	t := &Table{
		Title:   "Ablation — receiver sample rate: 20 vs 40 Msps (§VI-B)",
		Columns: []string{"SNR (dB)", "BER @20 Msps", "BER @40 Msps"},
	}
	for _, snr := range []float64{-4, -2, 0, 2} {
		var bers [2]float64
		for i, p := range []core.Params{core.Params20(), core.Params40()} {
			stats, err := Run(RunSpec{
				Params:    p,
				Bits:      bits,
				Packets:   packets,
				Seed:      opts.Seed + int64(snr*10),
				ConfigFor: awgn(p, snr, 512),
			})
			if err != nil {
				return nil, err
			}
			bers[i] = stats.BER()
		}
		t.AddRow(snr, bers[0], bers[1])
	}
	return t, nil
}
