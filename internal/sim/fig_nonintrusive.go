package sim

//symbee:ignore-file rngstream -- the per-point seed arithmetic in the figure drivers is part of each figure's published definition: the paper artifacts were generated from these exact streams, and rederiving them through splitmix would silently regenerate different curves. New drivers must split streams via internal/splitmix.

import (
	"math/rand"

	"symbee/internal/dsp"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// NonIntrusiveness quantifies the paper's claim that SymBee leaves
// legacy WiFi communication intact (§I, §III-A): a WiFi frame is decoded
// while a SymBee transmission runs concurrently at increasing relative
// power. The 2 MHz ZigBee signal only grazes a handful of the 48 OFDM
// subcarriers, so WiFi BER stays near zero until the interloper gets
// within a few dB of the WiFi signal itself.
func NonIntrusiveness(opts Options) (*Table, error) {
	trials := opts.packets(20)
	rng := rand.New(rand.NewSource(opts.Seed))
	tx := wifi.NewTransmitter(rng)
	rx, err := wifi.NewReceiver()
	if err != nil {
		return nil, err
	}
	mod, err := zigbee.NewModulator(20e6)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 80)
	for i := range payload {
		if i%2 == 0 {
			payload[i] = 0x67
		} else {
			payload[i] = 0xEF
		}
	}
	symbeeSig := mod.ModulateBytes(payload)

	t := &Table{
		Title:   "Non-intrusiveness — WiFi reception under a concurrent SymBee transmission",
		Note:    "WiFi frame at 20 dB SNR; SymBee power swept relative to the WiFi frame.\nEVM = RMS error vector magnitude of the equalized QPSK symbols",
		Columns: []string{"SymBee rel. power (dB)", "WiFi BER", "WiFi EVM", "frames decoded"},
	}
	const nSymbols = 6
	for _, rel := range []float64{-100, -20, -15, -10, -5, 0} {
		errs, total, decoded := 0, 0, 0
		var evmSum float64
		for i := 0; i < trials; i++ {
			bits := make([]byte, nSymbols*wifi.BitsPerOFDMSymbol)
			for k := range bits {
				bits[k] = byte(rng.Intn(2))
			}
			frame, err := tx.FrameWithBits(bits)
			if err != nil {
				return nil, err
			}
			capture := make([]complex128, len(frame)+3000)
			for k, v := range frame {
				capture[700+k] += v
			}
			if rel > -90 {
				zb := make([]complex128, len(symbeeSig))
				copy(zb, symbeeSig)
				dsp.NormalizePower(zb, dsp.FromDB(rel))
				// The ZigBee channel sits at a +3 MHz offset from the
				// WiFi center, the canonical overlap.
				dsp.RotateFrequency(zb, 3e6, 20e6, 0)
				dsp.MixInto(capture, zb, 700-rng.Intn(500))
			}
			// 20 dB SNR thermal noise (frame power ≈ 1 → noise 0.01).
			sigma := 0.0707106781 // sqrt(0.01/2) per real dimension
			for k := range capture {
				capture[k] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
			got, err := rx.Receive(capture, nSymbols)
			if err != nil {
				continue
			}
			decoded++
			evmSum += got.SymbolEVM
			for k := range bits {
				if got.Bits[k] != bits[k] {
					errs++
				}
			}
			total += len(bits)
		}
		evm := 0.0
		if decoded > 0 {
			evm = evmSum / float64(decoded)
		}
		t.AddRow(rel, ratio(errs, total), evm, float64(decoded)/float64(trials))
	}
	return t, nil
}
