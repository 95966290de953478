package zigbee

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNoSync is returned when frame synchronization fails to find a
// plausible synchronization header in the input.
var ErrNoSync = errors.New("zigbee: no synchronization header found")

// Demodulator recovers chips, symbols and frames from OQPSK baseband.
// It is the receiver a neighbouring ZigBee node uses in the
// cross-technology broadcast scenario (§VI-A): a SymBee packet is a
// legitimate ZigBee packet, so a standard receiver decodes it natively.
type Demodulator struct {
	mod *Modulator
}

// NewDemodulator returns a demodulator for the given sample rate (same
// constraints as NewModulator).
func NewDemodulator(sampleRate float64) (*Demodulator, error) {
	mod, err := NewModulator(sampleRate)
	if err != nil {
		return nil, err
	}
	return &Demodulator{mod: mod}, nil
}

// SoftChips matched-filters nChips chips from x starting at sample
// offset. Even chips correlate the in-phase rail and odd chips the
// quadrature rail against the half-sine pulse; the sign of each value is
// the hard chip decision and its magnitude the confidence. x must be
// phase-aligned with the transmitter's carrier (ReceiveAt derotates it
// first).
func (d *Demodulator) SoftChips(x []complex128, offset, nChips int) ([]float64, error) {
	sps := d.mod.samplesPerSlot
	need := offset + (nChips+1)*sps
	if offset < 0 || need > len(x) {
		return nil, fmt.Errorf("zigbee: input too short: need %d samples, have %d", need, len(x))
	}
	soft := make([]float64, nChips)
	for k := 0; k < nChips; k++ {
		base := offset + k*sps
		var acc float64
		if k%2 == 0 {
			for i, p := range d.mod.pulse {
				acc += real(x[base+i]) * p
			}
		} else {
			for i, p := range d.mod.pulse {
				acc += imag(x[base+i]) * p
			}
		}
		soft[k] = acc
	}
	return soft, nil
}

// DemodulateSymbols recovers nSymbols symbols from x starting at sample
// offset using soft-decision correlation against all 16 spreading
// sequences (maximum-likelihood under AWGN).
func (d *Demodulator) DemodulateSymbols(x []complex128, offset, nSymbols int) ([]byte, error) {
	soft, err := d.SoftChips(x, offset, nSymbols*ChipsPerSymbol)
	if err != nil {
		return nil, err
	}
	symbols := make([]byte, nSymbols)
	for s := 0; s < nSymbols; s++ {
		window := soft[s*ChipsPerSymbol : (s+1)*ChipsPerSymbol]
		best, bestScore := byte(0), math.Inf(-1)
		for cand := byte(0); cand < NumSymbols; cand++ {
			var score float64
			for k, c := range chipTable[cand] {
				if c == 1 {
					score += window[k]
				} else {
					score -= window[k]
				}
			}
			if score > bestScore {
				best, bestScore = cand, score
			}
		}
		symbols[s] = best
	}
	return symbols, nil
}

// Synchronize locates the start of a frame in x by sliding the ideal
// synchronization-header waveform (preamble + SFD) over the input and
// returning the offset with the largest correlation magnitude. searchLen
// bounds the number of candidate offsets (use len(x) to search
// everywhere). It returns ErrNoSync when the peak correlation is too
// weak relative to the signal energy to be a real header.
func (d *Demodulator) Synchronize(x []complex128, searchLen int, order SymbolOrder) (int, error) {
	ref := d.shr(order)
	if searchLen <= 0 || searchLen > len(x)-len(ref) {
		searchLen = len(x) - len(ref)
	}
	if searchLen <= 0 {
		return 0, ErrNoSync
	}
	_, refEnergy := correlate(ref, ref)
	bestOff, bestMag := -1, 0.0
	for off := 0; off < searchLen; off++ {
		acc, energy := correlate(x[off:], ref)
		if energy == 0 {
			continue
		}
		mag := (real(acc)*real(acc) + imag(acc)*imag(acc)) / (energy * refEnergy)
		if mag > bestMag {
			bestOff, bestMag = off, mag
		}
	}
	// Normalized correlation is 1 for a perfect match; demand a
	// reasonable fraction to reject pure noise.
	if bestOff < 0 || bestMag < 0.1 {
		return 0, ErrNoSync
	}
	return bestOff, nil
}

// Receive runs the full pipeline on x: synchronize, demodulate the
// header, read the PHR length, demodulate the PSDU and validate the
// frame. It returns the MAC payload (without FCS).
func (d *Demodulator) Receive(x []complex128, order SymbolOrder) ([]byte, error) {
	start, err := d.Synchronize(x, len(x), order)
	if err != nil {
		return nil, err
	}
	return d.ReceiveAt(x, start, order)
}

// ReceiveAt is Receive with a known frame start offset (in samples).
// The receiver is not phase-locked to the sender: it estimates the
// carrier phase from the synchronization header at start (the argument
// of the header's coherent correlation with the ideal waveform) and
// derotates the samples it demodulates by it. Sample offsets in its
// errors count from start.
func (d *Demodulator) ReceiveAt(x []complex128, start int, order SymbolOrder) ([]byte, error) {
	if start < 0 || start > len(x) {
		return nil, fmt.Errorf("zigbee: frame start %d outside the %d-sample input", start, len(x))
	}
	x = derotate(x[start:], d.shr(order))
	headerSyms, err := d.DemodulateSymbols(x, 0, HeaderSymbols)
	if err != nil {
		return nil, err
	}
	header, err := SymbolsToBytes(headerSyms, order)
	if err != nil {
		return nil, err
	}
	if header[PreambleLen] != SFD {
		return nil, fmt.Errorf("%w: got 0x%02X", ErrBadSFD, header[PreambleLen])
	}
	psduLen := int(header[PreambleLen+1])
	if psduLen < FCSLen || psduLen > MaxPSDULen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, psduLen)
	}
	psduOffset := HeaderSymbols * ChipsPerSymbol * d.mod.samplesPerSlot
	psduSyms, err := d.DemodulateSymbols(x, psduOffset, psduLen*2)
	if err != nil {
		return nil, err
	}
	psdu, err := SymbolsToBytes(psduSyms, order)
	if err != nil {
		return nil, err
	}
	ppdu := append(header, psdu...)
	return ParsePPDU(ppdu)
}

// shr returns the ideal synchronization-header waveform (preamble and
// SFD) in the given symbol order.
func (d *Demodulator) shr(order SymbolOrder) []complex128 {
	return d.mod.ModulateBytes(append(make([]byte, PreambleLen), SFD), order)
}

// correlate returns the coherent correlation Σ x·conj(ref) over the
// span x and ref share, accumulated per rail, and the energy of x over
// that span.
func correlate(x, ref []complex128) (acc complex128, energy float64) {
	n := min(len(x), len(ref))
	x, ref = x[:n], ref[:n]
	var re, im float64
	for i, r := range ref {
		v := x[i]
		re += real(v)*real(r) + imag(v)*imag(r)
		im += imag(v)*real(r) - real(v)*imag(r)
		energy += real(v)*real(v) + imag(v)*imag(v)
	}
	return complex(re, im), energy
}

// derotate returns a copy of x rotated by minus the carrier phase
// measured against ref, the waveform x starts with. A zero correlation
// (no signal) leaves the copy unrotated.
func derotate(x, ref []complex128) []complex128 {
	acc, _ := correlate(x, ref)
	rot := complex(1, 0)
	if mag := cmplx.Abs(acc); mag > 0 {
		rot = complex(real(acc)/mag, -imag(acc)/mag)
	}
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * rot
	}
	return out
}
