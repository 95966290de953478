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
	// shape[1] and shape[0] are the rail samples a positive and a
	// negative chip contribute: 0 + a·pulse[i] for a = ±1, the value a
	// zeroed rail accumulator holds after adding the one pulse sample
	// that ever lands on it (so the −0 of −pulse[0] is stored as +0).
	// idle is one chip slot of +0 for a rail no pulse covers.
	shape [2][]float64
	idle  []float64
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
	m := &Modulator{
		samplesPerSlot: sps,
		pulse:          make([]float64, 2*sps),
		shape:          [2][]float64{make([]float64, 2*sps), make([]float64, 2*sps)},
		idle:           make([]float64, sps),
	}
	for i := range m.pulse {
		p := math.Sin(math.Pi * float64(i) / float64(2*sps))
		m.pulse[i] = p
		for c, a := range [2]float64{-1, 1} {
			var acc float64
			acc += a * p
			m.shape[c][i] = acc
		}
	}
	return m, nil
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
	return m.modulateChips(nil, chips)
}

// modulateChips is ModulateChips writing into dst's storage when its
// capacity suffices (a new slice otherwise). Every returned sample is
// written, so nothing dst held before leaks into the waveform.
//
// Chip k's pulse covers slots k and k+1 of its rail, so slot s carries
// the first half of chip s and the second half of chip s−1, one on
// each rail: chip s's rail is in-phase for even s and quadrature for
// odd s. Each sample is one store of two precomputed rail values.
func (m *Modulator) modulateChips(dst []complex128, chips []byte) []complex128 {
	sps := m.samplesPerSlot
	n := (len(chips) + 1) * sps
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	tail := m.idle // second half of the previous chip's pulse
	for s := 0; s <= len(chips); s++ {
		head, next := m.idle, m.idle
		if s < len(chips) {
			shape := m.shape[0]
			if chips[s] != 0 {
				shape = m.shape[1]
			}
			head, next = shape[:sps], shape[sps:]
		}
		re, im := head, tail
		if s%2 == 1 {
			re, im = tail, head
		}
		out := dst[s*sps : (s+1)*sps]
		re, im = re[:len(out)], im[:len(out)]
		for i := range out {
			out[i] = complex(re[i], im[i])
		}
		tail = next
	}
	return dst
}

// ModulateSymbols spreads the symbols and shapes the resulting chips.
func (m *Modulator) ModulateSymbols(symbols []byte) []complex128 {
	return m.ModulateChips(SpreadSymbols(symbols))
}

// ModulateBytes expands bytes into symbols using order and modulates
// them.
func (m *Modulator) ModulateBytes(data []byte, order SymbolOrder) []complex128 {
	return m.ModulateBytesInto(nil, data, order)
}

// ModulateBytesInto is ModulateBytes synthesizing into dst's storage
// when its capacity suffices (a new slice otherwise), so a caller that
// modulates frame after frame can recycle one buffer. Every returned
// sample is overwritten.
func (m *Modulator) ModulateBytesInto(dst []complex128, data []byte, order SymbolOrder) []complex128 {
	return m.modulateChips(dst, SpreadSymbols(BytesToSymbols(data, order)))
}
