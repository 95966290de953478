package ctc

import (
	"errors"
	"fmt"
)

// CMorse implements C-Morse-style duration modulation: bit 0 is a short
// ("dot") ZigBee packet and bit 1 a long ("dash") one, separated by
// fixed gaps; the WiFi receiver classifies burst durations. With the
// minimal 576 µs dot, a 3× dash and the inter-packet spacing the
// original system needs to stay transparent to regular traffic, the
// rate lands at the published 215 bps.
type CMorse struct {
	// Dot is the short packet duration (the minimal ZigBee packet).
	Dot float64
	// Dash is the long packet duration.
	Dash float64
	// Gap separates consecutive packets.
	Gap float64
}

// NewCMorse returns C-Morse at its published operating point (≈215 bps).
func NewCMorse() *CMorse {
	return &CMorse{
		Dot:  576e-6,
		Dash: 3 * 576e-6,
		Gap:  3.5e-3,
	}
}

// Name implements Scheme.
func (c *CMorse) Name() string { return "C-Morse" }

// NominalRate implements Scheme: the average bit time over balanced data.
func (c *CMorse) NominalRate() float64 {
	avg := (c.Dot+c.Dash)/2 + c.Gap
	return 1 / avg
}

// errCMorsePoint rejects unusable C-Morse operating points.
var errCMorsePoint = errors.New("ctc: invalid C-Morse operating point")

// Validate implements Scheme.
func (c *CMorse) Validate() error {
	switch {
	case !finite(c.Dot, c.Dash, c.Gap) || c.Dot <= 0 || c.Gap <= 0:
		return fmt.Errorf("%w: dot %v, dash %v or gap %v not positive and finite",
			errCMorsePoint, c.Dot, c.Dash, c.Gap)
	case c.Dash <= c.Dot:
		return fmt.Errorf("%w: dash %v not longer than dot %v (duration classes inseparable)",
			errCMorsePoint, c.Dash, c.Dot)
	}
	return nil
}

// Occupancy implements Scheme: the balanced-data expectation — half
// dots, half dashes, one gap per bit.
func (c *CMorse) Occupancy(nBits int) (wall, air float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	if nBits <= 0 {
		return 0, 0, fmt.Errorf("%w: %d", errNBits, nBits)
	}
	avg := (c.Dot + c.Dash) / 2
	return float64(nBits) * (avg + c.Gap), float64(nBits) * avg, nil
}

// Encode implements Scheme.
func (c *CMorse) Encode(m *Medium, bits []byte, start, snrDB float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	t := start
	for _, b := range bits {
		d := c.Dot
		if b == 1 {
			d = c.Dash
		} else if b != 0 {
			return 0, fmt.Errorf("ctc: invalid bit %d", b)
		}
		if t+d > m.Duration() {
			return 0, fmt.Errorf("ctc: medium too short for C-Morse encoding")
		}
		m.AddBurst(t, d, snrDB)
		t += d + c.Gap
	}
	return t - start, nil
}

// Decode implements Scheme: bursts shorter than the dot/dash midpoint
// are dots (bit 0), longer ones dashes (bit 1). Bursts longer than two
// dashes are interference and are skipped.
func (c *CMorse) Decode(m *Medium, nBits int) ([]byte, error) {
	mid := (c.Dot + c.Dash) / 2
	bursts := m.DetectBursts(6, c.Gap/4, c.Dot/2)
	bits := make([]byte, 0, nBits)
	for _, b := range bursts {
		if len(bits) == nBits {
			break
		}
		if b.Duration > 2*c.Dash {
			continue // too long for any codeword: foreign traffic
		}
		if b.Duration >= mid {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits, nil
}
