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
	// slots[parity][head][tail] is one chip slot of output. Chip k's
	// pulse covers slots k and k+1 of its rail, so slot s carries the
	// first half of chip s (head) and the second half of chip s−1
	// (tail), one on each rail: the head's rail is in-phase for even s
	// and quadrature for odd s. A level is 0 for a negative chip, 1 for
	// a positive one and 2 for none (before the first chip, after the
	// last). Each rail value is 0 + a·pulse[i] for a = ±1, the value a
	// zeroed rail accumulator holds after adding the one pulse sample
	// that ever lands on it (so the −0 of −pulse[0] is stored as +0),
	// and +0 for a rail no pulse covers.
	slots [2][3][3][]complex128
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
	}
	// shape[level] is the whole pulse of a chip at that level; the
	// third level is the idle rail.
	shape := [3][]float64{make([]float64, 2*sps), make([]float64, 2*sps), make([]float64, 2*sps)}
	for i := range m.pulse {
		p := math.Sin(math.Pi * float64(i) / float64(2*sps))
		m.pulse[i] = p
		for c, a := range [2]float64{-1, 1} {
			var acc float64
			acc += a * p
			shape[c][i] = acc
		}
	}
	slots := make([]complex128, 2*3*3*sps) // backs all 18 patterns
	for parity := range m.slots {
		for head := range m.slots[parity] {
			for tail := range m.slots[parity][head] {
				re, im := shape[head][:sps], shape[tail][sps:]
				if parity == 1 {
					re, im = im, re
				}
				slot := slots[:sps:sps]
				slots = slots[sps:]
				for i := range slot {
					slot[i] = complex(re[i], im[i])
				}
				m.slots[parity][head][tail] = slot
			}
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
	out := make([]complex128, (len(chips)+1)*m.samplesPerSlot)
	m.ModulateChipsRange(out, chips, 0)
	return out
}

// ModulateChipsRange writes samples [from, from+len(dst)) of
// ModulateChips(chips) into dst, bit for bit, overwriting every
// element, so a caller can render any stretch of a waveform without
// holding the rest of it. The range must lie inside the waveform:
// 0 ≤ from and from+len(dst) ≤ (len(chips)+1)·SamplesPerSlot().
//
// Every sample is a copy out of one of the precomputed slot patterns,
// chosen by the slot's parity and its head and tail chips.
func (m *Modulator) ModulateChipsRange(dst []complex128, chips []byte, from int) {
	sps := m.samplesPerSlot
	s, i := from/sps, from%sps
	for len(dst) > 0 {
		head, tail := 2, 2
		if s < len(chips) {
			head = chipLevel(chips[s])
		}
		if s > 0 {
			tail = chipLevel(chips[s-1])
		}
		n := copy(dst, m.slots[s&1][head][tail][i:])
		dst = dst[n:]
		s, i = s+1, 0
	}
}

// chipLevel maps a chip byte to its slot-pattern level: any nonzero
// chip is a positive pulse.
func chipLevel(c byte) int {
	if c != 0 {
		return 1
	}
	return 0
}

// ModulateSymbols spreads the symbols and shapes the resulting chips.
func (m *Modulator) ModulateSymbols(symbols []byte) []complex128 {
	return m.ModulateChips(SpreadSymbols(symbols))
}

// ModulateBytes expands bytes into symbols (BytesToSymbols) and
// modulates them.
func (m *Modulator) ModulateBytes(data []byte) []complex128 {
	return m.ModulateChips(SpreadSymbols(BytesToSymbols(data)))
}
