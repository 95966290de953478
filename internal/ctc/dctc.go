package ctc

import (
	"errors"
	"fmt"
	"math"
)

// DCTC modulates the gaps between consecutive data packets: a gap of
// (MinGap + s·GapStep) encodes the 2-bit symbol s. This captures the
// transparent data-traffic timing modulation of DCTC; with 1 ms packets
// and 2–5 ms gaps the rate is ≈440 bps.
type DCTC struct {
	// PacketDuration is one data packet's airtime.
	PacketDuration float64
	// MinGap is the smallest inter-packet gap.
	MinGap float64
	// GapStep is the gap quantum; 4 gap values encode 2 bits.
	GapStep float64
	// BitsPerGap is log2 of the number of gap values.
	BitsPerGap int
}

// NewDCTC returns DCTC at its ≈440 bps operating point.
func NewDCTC() *DCTC {
	return &DCTC{
		PacketDuration: 1e-3,
		MinGap:         2e-3,
		GapStep:        1e-3,
		BitsPerGap:     2,
	}
}

// Name implements Scheme.
func (d *DCTC) Name() string { return "DCTC" }

// NominalRate implements Scheme: average symbol time over balanced data.
func (d *DCTC) NominalRate() float64 {
	gaps := 1 << d.BitsPerGap
	avgGap := d.MinGap + d.GapStep*float64(gaps-1)/2
	return float64(d.BitsPerGap) / (d.PacketDuration + avgGap)
}

// errDCTCPoint rejects unusable DCTC operating points.
var errDCTCPoint = errors.New("ctc: invalid DCTC operating point")

// Validate implements Scheme.
func (d *DCTC) Validate() error {
	switch {
	case !finite(d.PacketDuration, d.MinGap, d.GapStep) ||
		d.PacketDuration <= 0 || d.MinGap <= 0 || d.GapStep <= 0:
		return fmt.Errorf("%w: packet %v, gap %v or step %v not positive and finite",
			errDCTCPoint, d.PacketDuration, d.MinGap, d.GapStep)
	case d.BitsPerGap < 1 || d.BitsPerGap > 8:
		return fmt.Errorf("%w: BitsPerGap %d", errDCTCPoint, d.BitsPerGap)
	}
	return nil
}

// Occupancy implements Scheme: the leading packet plus one packet per
// symbol after its expected (balanced-data) gap.
func (d *DCTC) Occupancy(nBits int) (wall, air float64, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, err
	}
	if nBits <= 0 {
		return 0, 0, fmt.Errorf("%w: %d", errNBits, nBits)
	}
	syms := (nBits + d.BitsPerGap - 1) / d.BitsPerGap
	gaps := 1 << d.BitsPerGap
	avgGap := d.MinGap + d.GapStep*float64(gaps-1)/2
	wall = d.PacketDuration + float64(syms)*(avgGap+d.PacketDuration)
	air = float64(1+syms) * d.PacketDuration
	return wall, air, nil
}

// Encode implements Scheme: a leading packet, then one packet per
// symbol whose preceding gap carries the bits.
func (d *DCTC) Encode(m *Medium, bits []byte, start, snrDB float64) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	t := start
	if t+d.PacketDuration > m.Duration() {
		return 0, fmt.Errorf("ctc: medium too short for DCTC encoding")
	}
	m.AddBurst(t, d.PacketDuration, snrDB)
	t += d.PacketDuration
	for i := 0; i < len(bits); i += d.BitsPerGap {
		sym := 0
		for j := 0; j < d.BitsPerGap; j++ {
			sym <<= 1
			if i+j < len(bits) && bits[i+j] == 1 {
				sym |= 1
			}
		}
		gap := d.MinGap + float64(sym)*d.GapStep
		t += gap
		if t+d.PacketDuration > m.Duration() {
			return 0, fmt.Errorf("ctc: medium too short for DCTC encoding")
		}
		m.AddBurst(t, d.PacketDuration, snrDB)
		t += d.PacketDuration
	}
	return t - start, nil
}

// Decode implements Scheme: gaps between consecutive packet-sized
// bursts quantize back to symbols.
func (d *DCTC) Decode(m *Medium, nBits int) ([]byte, error) {
	bursts := m.DetectBursts(6, d.PacketDuration/4, d.PacketDuration/2)
	// Keep packet-like bursts only.
	var pk []Burst
	for _, b := range bursts {
		if b.Duration < 3*d.PacketDuration {
			pk = append(pk, b)
		}
	}
	bits := make([]byte, 0, nBits)
	maxSym := 1<<d.BitsPerGap - 1
	for i := 1; i < len(pk) && len(bits) < nBits; i++ {
		gap := pk[i].Start - (pk[i-1].Start + pk[i-1].Duration)
		sym := int(math.Round((gap - d.MinGap) / d.GapStep))
		if sym < 0 {
			sym = 0
		}
		if sym > maxSym {
			continue // gap too long: lost packet or foreign burst
		}
		for j := d.BitsPerGap - 1; j >= 0 && len(bits) < nBits; j-- {
			bits = append(bits, byte(sym>>j&1))
		}
	}
	return bits, nil
}
