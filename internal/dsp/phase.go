package dsp

import (
	"math"
	"slices"
)

// WrapPhase wraps an angle in radians to the interval (-π, π].
//
// On (−3π, 3π] — every compensated phase of the receive path — it
// subtracts 2π, −2π or +0 with no branch: masks built from the sign
// bits of π−φ (set iff φ > π) and −π−φ (clear iff φ ≤ −π) pick the
// step, so the ~40% of noise phases a +4π/5 compensation pushes across
// π cost no mispredict. One exact step lands there, φ − (+0) keeps a
// −0 input −0, and each result is the one repeated ±2π steps give.
// Everything else — NaN, ±Inf and the rest of the line, −3π included,
// which needs two steps — goes through wrapPhaseFar.
//
//symbee:hotpath
func WrapPhase(phi float64) float64 {
	if phi > -3*math.Pi && phi <= 3*math.Pi {
		above := math.Float64bits(math.Pi-phi) >> 63   // 1 iff phi > π
		below := ^math.Float64bits(-math.Pi-phi) >> 63 // 1 iff phi ≤ −π
		return phi - math.Float64frombits(-(above|below)&twoPiBits|below<<63)
	}
	return wrapPhaseFar(phi)
}

// twoPiBits is the bit pattern of 2π.
var twoPiBits = math.Float64bits(2 * math.Pi)

// wrapPhaseFar is WrapPhase outside (−3π, 3π]. The near-range steps
// are bit-identical to the math.Mod path: for |phi| ≤ 4π every ±2π step
// is exact (Sterbenz), and two exact results in a half-open 2π interval
// that differ by a multiple of 2π are the same value.
func wrapPhaseFar(phi float64) float64 {
	if phi >= -4*math.Pi && phi <= 4*math.Pi {
		for phi > math.Pi {
			phi -= 2 * math.Pi
		}
		for phi <= -math.Pi {
			phi += 2 * math.Pi
		}
		return phi
	}
	phi = math.Mod(phi, 2*math.Pi)
	switch {
	case phi > math.Pi:
		phi -= 2 * math.Pi
	case phi <= -math.Pi:
		phi += 2 * math.Pi
	}
	return phi
}

// PhaseDiffStream computes the idle-listening phase stream
//
//	p[n] = arg(x[n] · conj(x[n+lag]))
//
// for n in [0, len(x)-lag). This is the quantity the WiFi packet-detection
// (autocorrelation) block computes on every incoming sample; SymBee
// decoding consumes it directly (paper Eq. 1, with lag = 16 at 20 Msps and
// lag = 32 at 40 Msps).
//
// Angles come from the FastAtan2 phase kernel, within FastAtan2MaxErr
// of math.Atan2.
//
// A non-positive lag, like an input shorter than lag+1 samples, admits
// no phase pairs and returns nil.
func PhaseDiffStream(x []complex128, lag int) []float64 {
	return AppendPhaseDiffStream(nil, x, lag)
}

// AppendPhaseDiffStream appends PhaseDiffStream(x, lag) to dst and
// returns the extended slice, growing dst at most once, so a caller
// that passes its previous result back as dst[:0] reuses one buffer.
// Input that admits no phase pairs leaves dst unchanged.
func AppendPhaseDiffStream(dst []float64, x []complex128, lag int) []float64 {
	if lag <= 0 || len(x) <= lag {
		return dst
	}
	return appendPhaseDiff(slices.Grow(dst, len(x)-lag), x, lag)
}

// CompensatePhases adds offset to every phase in place, re-wrapping to
// (-π, π]. It implements the channel-frequency-offset compensation of
// Appendix B (offset = +4π/5 for every overlapping ZigBee/WiFi channel
// pair at 20 Msps).
func CompensatePhases(phases []float64, offset float64) []float64 {
	if offset == 0 {
		return phases
	}
	for i, p := range phases {
		phases[i] = WrapPhase(p + offset)
	}
	return phases
}

// PhaseDistance returns the absolute angular distance between two phases,
// accounting for wrap-around; the result is in [0, π].
func PhaseDistance(a, b float64) float64 {
	return math.Abs(WrapPhase(a - b))
}

// LongestStableRun scans phases and returns the start index and length of
// the longest run of consecutive values that stay within tol of the run's
// first value (angular distance). It is the analysis tool behind Fig. 6:
// the search for the symbol combinations with the longest stable phase.
func LongestStableRun(phases []float64, tol float64) (start, length int) {
	bestStart, bestLen := 0, 0
	i := 0
	for i < len(phases) {
		ref := phases[i]
		j := i + 1
		for j < len(phases) && PhaseDistance(phases[j], ref) <= tol {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i++
		// Restarting at i+1 (not j) keeps the scan exact: a longer run
		// may begin inside the previous candidate with a different
		// reference value.
	}
	return bestStart, bestLen
}

// SignCounts reports how many of the given phases are negative and how
// many are nonnegative. The SymBee decision boundary is 0 (§IV-C).
func SignCounts(phases []float64) (neg, nonneg int) {
	for _, p := range phases {
		if p < 0 {
			neg++
		} else {
			nonneg++
		}
	}
	return neg, nonneg
}
