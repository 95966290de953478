package core

import (
	"fmt"
	"math"
)

// Soft-decision decoding: an extension beyond the paper. §IV-C decodes
// by counting signs against the 0 boundary, which discards how far each
// phase sits from the two codeword hypotheses ±4π/5. The soft decoder
// accumulates per-value log-likelihood-style scores instead — the
// angular distance to each hypothesis — which buys measurable BER at
// low SNR for free (the phases are already computed). See the
// soft-decision ablation bench.

// SoftBit carries a soft decision for one bit position.
type SoftBit struct {
	// Bit is the hard decision.
	Bit byte
	// LLR is the accumulated score difference: positive favors bit 0
	// (stable phase +4π/5), negative favors bit 1. Magnitude is
	// confidence.
	LLR float64
}

// softScore accumulates the hypothesis-distance difference over one
// stable window: for each phase value, distance to −4π/5 minus distance
// to +4π/5 (positive → closer to the bit-0 phase).
func softScore(window []float64) float64 {
	var s float64
	for _, phi := range window {
		d0 := angularDistance(phi, StablePhase)
		d1 := angularDistance(phi, -StablePhase)
		s += d1 - d0
	}
	return s
}

func angularDistance(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d < 0 {
		d += 2 * math.Pi
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// DecodeSyncBitsSoft is DecodeSyncBits with soft decisions: bit k's
// window is scored against both codeword phases instead of sign-counted.
func (d *Decoder) DecodeSyncBitsSoft(phases []float64, anchor, n int) ([]SoftBit, error) {
	prepared := d.prepare(phases)
	out := make([]SoftBit, n)
	for k := 0; k < n; k++ {
		start := anchor + (PreambleBits+k)*d.p.BitPeriod
		end := start + d.p.StableLen
		if start < 0 || end > len(prepared) {
			return out[:k], fmt.Errorf("%w: soft bit %d needs [%d,%d), stream has %d",
				ErrTruncated, k, start, end, len(prepared))
		}
		llr := softScore(prepared[start:end])
		bit := byte(0)
		if llr < 0 {
			bit = 1
		}
		out[k] = SoftBit{Bit: bit, LLR: llr}
	}
	return out, nil
}
