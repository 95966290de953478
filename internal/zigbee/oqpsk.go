package zigbee

import (
	"fmt"
	"math"
)

// Modulator converts symbol streams into complex-baseband OQPSK signal
// sampled at a configurable rate. Even-indexed chips shape the in-phase
// rail and odd-indexed chips the quadrature rail; because the pulse for
// chip k starts at k chip slots, the quadrature rail is naturally offset
// by half a pulse (0.5 µs), which is the "O" in OQPSK (paper Fig. 2).
type Modulator struct {
	samplesPerSlot int
	pulse          []float64 // half-sine spanning two chip slots
}

// NewModulator returns a modulator producing samples at sampleRate Hz.
// The rate must be a positive integer multiple of the 2 MHz chip rate
// (10 samples per chip slot at 20 Msps, 20 at 40 Msps).
func NewModulator(sampleRate float64) (*Modulator, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("zigbee: sample rate %v must be positive", sampleRate)
	}
	spsF := sampleRate * ChipSlot
	sps := int(math.Round(spsF))
	if math.Abs(spsF-float64(sps)) > 1e-9 || sps < 2 {
		return nil, fmt.Errorf("zigbee: sample rate %v is not an integer multiple >=2 of the chip rate", sampleRate)
	}
	pulse := make([]float64, 2*sps)
	for i := range pulse {
		pulse[i] = math.Sin(math.Pi * float64(i) / float64(2*sps))
	}
	return &Modulator{
		samplesPerSlot: sps,
		pulse:          pulse,
	}, nil
}

// SamplesPerSlot returns the number of samples in one 0.5 µs chip slot.
func (m *Modulator) SamplesPerSlot() int { return m.samplesPerSlot }

// SamplesPerSymbol returns the number of samples in one 16 µs symbol.
func (m *Modulator) SamplesPerSymbol() int { return m.samplesPerSlot * ChipsPerSymbol }

// ModulateChips shapes a chip stream into complex baseband. Chip value 1
// maps to a positive half-sine and 0 to a negative one (the standard
// polarity; the paper's Fig. 2 text uses the opposite naming, which only
// flips the global sign of the waveform and no observable in this
// repository depends on it).
//
// The output holds (len(chips)+1) chip slots: the final pulse extends one
// slot past the last chip start.
func (m *Modulator) ModulateChips(chips []byte) []complex128 {
	sps := m.samplesPerSlot
	out := make([]complex128, (len(chips)+1)*sps)
	re := make([]float64, len(out))
	im := make([]float64, len(out))
	for k, c := range chips {
		a := 1.0
		if c == 0 {
			a = -1.0
		}
		off := k * sps
		rail := re
		if k%2 == 1 {
			rail = im
		}
		for i, p := range m.pulse {
			rail[off+i] += a * p
		}
	}
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

// ModulateSymbols spreads the symbols and shapes the resulting chips.
func (m *Modulator) ModulateSymbols(symbols []byte) []complex128 {
	return m.ModulateChips(SpreadSymbols(symbols))
}

// ModulateBytes expands bytes into symbols using order and modulates
// them.
func (m *Modulator) ModulateBytes(data []byte, order SymbolOrder) []complex128 {
	return m.ModulateSymbols(BytesToSymbols(data, order))
}
