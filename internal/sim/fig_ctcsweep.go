package sim

//symbee:ignore-file rngstream -- the per-point seed arithmetic in the figure drivers is part of each figure's published definition: the paper artifacts were generated from these exact streams, and rederiving them through splitmix would silently regenerate different curves. New drivers must split streams via internal/splitmix.

import (
	"fmt"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/ctc"
)

// CTCInterferenceSweep contrasts how every CTC scheme degrades as WiFi
// occupancy grows. Packet-level schemes live or die by energy-sensing
// the whole packet, so bursts that merely overlap them destroy symbols;
// SymBee needs only 42 of 84 phase samples per bit to survive, which is
// why its BER stays flat far longer (the systems argument behind
// §VIII-E).
func CTCInterferenceSweep(opts Options) (*Table, error) {
	nBits := 80
	if opts.Short {
		nBits = 32
	}
	packets := opts.packets(24)
	duties := []float64{0, 0.1, 0.2, 0.3, 0.4}

	t := &Table{
		Title:   "CTC interference sensitivity — BER vs WiFi duty cycle",
		Note:    "all schemes at 20 dB detection SNR; WiFi bursts of 2 ms at equal power;\nSymBee at 10 dB SNR with the same burst process at IQ level",
		Columns: append([]string{"scheme"}, dutyLabels(duties)...),
	}

	// Baselines over the RSSI medium, averaged over several messages.
	reps := 1 + packets/8
	for _, s := range ctc.All() {
		row := []any{s.Name()}
		for _, duty := range duties {
			rng := rand.New(rand.NewSource(opts.Seed + int64(duty*100)))
			var env *ctc.InterferenceEnv
			if duty > 0 {
				env = &ctc.InterferenceEnv{DutyCycle: duty, BurstDuration: 2e-3, INRdB: 20}
			}
			var ber float64
			for r := 0; r < reps; r++ {
				res, err := ctc.Measure(s, nBits, 20, env, rng)
				if err != nil {
					return nil, err
				}
				ber += res.BER
			}
			row = append(row, ber/float64(reps))
		}
		t.AddRow(row...)
	}

	// SymBee over the IQ medium with the same burst process.
	p := core.Params20()
	bits := AlternatingBits(nBits)
	base := awgn(p, 10, 512)
	row := []any{"SymBee"}
	for _, duty := range duties {
		stats, err := Run(RunSpec{
			Params:  p,
			Bits:    bits,
			Packets: packets,
			Seed:    opts.Seed + int64(duty*1000),
			ConfigFor: func(rng *rand.Rand) channel.Config {
				cfg := base(rng)
				if duty > 0 {
					cfg.Interference = channel.InterferenceConfig{
						DutyCycle:     duty,
						BurstDuration: 2e-3,
						INRdB:         10, // equal power to the signal
					}
				}
				return cfg
			},
		})
		if err != nil {
			return nil, err
		}
		// Lost packets count as errored bits for parity with the
		// baselines' accounting.
		total := stats.Packets * stats.BitsPerPacket
		wrong := stats.WrongBits + (stats.Packets-stats.Captured)*stats.BitsPerPacket
		row = append(row, float64(wrong)/float64(total))
	}
	t.AddRow(row...)
	return t, nil
}

func dutyLabels(duties []float64) []string {
	labels := make([]string, len(duties))
	for i, d := range duties {
		labels[i] = fmt.Sprintf("duty %.0f%%", d*100)
	}
	return labels
}
