package sim

import (
	"math"
	"math/rand"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/dsp"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// MeasurePrEpsilon estimates Prε — the probability that one stable
// phase value falls on the wrong side of the decision boundary — at the
// given full-band SNR, by transmitting long runs of both codewords and
// inspecting the known stable windows.
func MeasurePrEpsilon(snrDB float64, packets int, seed int64) (float64, error) {
	p := core.Params20()
	mod, err := zigbee.NewModulator(p.SampleRate)
	if err != nil {
		return 0, err
	}
	fe, err := wifi.NewFrontEnd(p.SampleRate)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 60)
	for i := range payload {
		if i%2 == 0 {
			payload[i] = core.Bit0Byte
		} else {
			payload[i] = core.Bit1Byte
		}
	}
	sig := mod.ModulateBytes(payload, zigbee.OrderMSBFirst)
	wrong, total := 0, 0
	err = eachPacket(sig, packets, seed, awgn(p, snrDB, 0), func(capture []complex128, _ channel.Config, _ *rand.Rand) {
		ph := fe.PhaseStream(capture)
		dsp.CompensatePhases(ph, wifi.CanonicalCompensation)
		// Byte k's stable run occupies [k·640+270, k·640+350): sample
		// the 80 interior values (avoiding run-edge jitter).
		for k := 1; k < len(payload)-1; k++ {
			bit0 := k%2 == 0
			for j := 270; j < 350; j++ {
				v := ph[k*640+j]
				if bit0 != (v >= 0) {
					wrong++
				}
				total++
			}
		}
	})
	if err != nil {
		return 0, err
	}
	return float64(wrong) / float64(total), nil
}

// EquationBER evaluates the paper's Eq. 2: the probability that a
// majority vote over `window` stable values fails when each value errs
// independently with probability prEps.
func EquationBER(prEps float64, window int) float64 {
	// Sum_{l=window/2}^{window} C(l,window) prEps^l (1-prEps)^(window-l)
	// computed in log space for numerical stability.
	if prEps <= 0 {
		return 0
	}
	if prEps >= 1 {
		return 1
	}
	logP, log1P := math.Log(prEps), math.Log1p(-prEps)
	var sum float64
	for l := window / 2; l <= window; l++ {
		logC := logChoose(window, l)
		sum += math.Exp(logC + float64(l)*logP + float64(window-l)*log1P)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// Fig12BER reproduces the numerical BER-vs-SNR study (Fig. 12): for a
// sweep of SNRs it reports the measured Prε, the Eq. 2 closed-form BER
// and the BER measured end to end with synchronized decoding. Our SNR
// axis is full-band per-sample SNR, ≈5 dB below the paper's testbed
// axis (EXPERIMENTS.md records the calibration).
func Fig12BER(opts Options) (*Table, error) {
	return fig12BER(opts, core.Params20(), "Fig. 12 — BER vs SNR (20 Msps)")
}

// Fig12BER40MHz is the §VI-B variant at 40 Msps: doubled stable windows
// tolerate twice the errors, improving BER at equal SNR.
func Fig12BER40MHz(opts Options) (*Table, error) {
	return fig12BER(opts, core.Params40(), "Fig. 12 (40 MHz variant, §VI-B) — BER vs SNR")
}

func fig12BER(opts Options, p core.Params, title string) (*Table, error) {
	packets := opts.packets(40)
	bits := AlternatingBits(50)
	t := &Table{
		Title:   title,
		Note:    "Prε measured on stable windows; Eq.2 = closed-form majority vote;\nmeasured = end-to-end sync decoding (captured packets); capture = preamble capture rate",
		Columns: []string{"SNR (dB)", "Prε", "BER (Eq. 2)", "BER (measured)", "capture"},
	}
	for _, snr := range []float64{-10, -8, -6, -4, -2, 0, 2, 4, 6} {
		prEps, err := MeasurePrEpsilon(snr, (packets+9)/10, opts.Seed)
		if err != nil {
			return nil, err
		}
		stats, err := Run(RunSpec{
			Params:    p,
			Bits:      bits,
			Packets:   packets,
			Seed:      opts.Seed + int64(snr*100),
			ConfigFor: awgn(p, snr, 512),
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(snr, prEps, EquationBER(prEps, p.StableLen), stats.BER(), stats.CaptureRate())
	}
	return t, nil
}
