package wifi

import (
	"fmt"
	"math"

	"symbee/internal/dsp"
)

// AutocorrLag is the self-similarity lag of the 802.11 short training
// sequence in seconds: STS repeats every 0.8 µs, so packet detection
// correlates samples 0.8 µs apart (16 samples at 20 Msps, 32 at 40).
const AutocorrLag = 0.8e-6

// FrontEnd is the part of a WiFi receiver that runs unconditionally
// while idle: it digitizes the band and feeds every sample through the
// autocorrelation packet detector. ZigBee energy in the same band flows
// through the identical path, which is what SymBee exploits.
type FrontEnd struct {
	lag int
}

// NewFrontEnd returns a front-end sampling at sampleRate Hz. The rate
// must place an integer number of samples in the 0.8 µs autocorrelation
// lag (20 Msps → 16, 40 Msps → 32).
func NewFrontEnd(sampleRate float64) (*FrontEnd, error) {
	if sampleRate <= 0 {
		return nil, fmt.Errorf("wifi: sample rate %v must be positive", sampleRate)
	}
	lagF := sampleRate * AutocorrLag
	lag := int(math.Round(lagF))
	if math.Abs(lagF-float64(lag)) > 1e-9 || lag < 1 {
		return nil, fmt.Errorf("wifi: sample rate %v does not give an integer autocorrelation lag", sampleRate)
	}
	return &FrontEnd{lag: lag}, nil
}

// Lag returns the autocorrelation lag in samples (16 at 20 Msps).
func (f *FrontEnd) Lag() int { return f.lag }

// PhaseStream computes the idle-listening phase output ∠p[n] for every
// sample of x (paper Eq. 1). This is the signal SymBee decoding consumes.
func (f *FrontEnd) PhaseStream(x []complex128) []float64 {
	return dsp.PhaseDiffStream(x, f.lag)
}

// Autocorrelation returns the normalized Schmidl–Cox timing metric
//
//	M[n] = |P[n]|² / R[n]²,
//	P[n] = Σ_{k<W} x[n+k]·x*[n+k+lag],  R[n] = Σ_{k<W} |x[n+k+lag]|²
//
// with window W = 9·lag (the span of the STS minus one repetition).
// M approaches 1 over an STS and stays well below over noise or ZigBee.
func (f *FrontEnd) Autocorrelation(x []complex128) []float64 {
	w := 9 * f.lag
	n := len(x) - w - f.lag
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	var pRe, pIm, r float64
	// Prime the sums for n = 0.
	for k := 0; k < w; k++ {
		a, b := x[k], x[k+f.lag]
		pRe += real(a)*real(b) + imag(a)*imag(b)
		pIm += imag(a)*real(b) - real(a)*imag(b)
		r += real(b)*real(b) + imag(b)*imag(b)
	}
	for i := 0; ; i++ {
		if r > 0 {
			out[i] = (pRe*pRe + pIm*pIm) / (r * r)
		}
		if i+1 >= n {
			break
		}
		// Slide: remove term k=i, add term k=i+w.
		a, b := x[i], x[i+f.lag]
		pRe -= real(a)*real(b) + imag(a)*imag(b)
		pIm -= imag(a)*real(b) - real(a)*imag(b)
		r -= real(b)*real(b) + imag(b)*imag(b)
		a, b = x[i+w], x[i+w+f.lag]
		pRe += real(a)*real(b) + imag(a)*imag(b)
		pIm += imag(a)*real(b) - real(a)*imag(b)
		r += real(b)*real(b) + imag(b)*imag(b)
		if r < 0 {
			r = 0 // guard against floating-point drift on silent input
		}
	}
	return out
}

// DetectPackets reports the start indices of WiFi packets in x: positions
// where the timing metric exceeds threshold continuously for at least
// minPlateau samples. Detections closer than one STS length (10·lag) to
// the previous one are merged. A threshold of 0.7 and plateau of 4·lag
// work well in practice.
func (f *FrontEnd) DetectPackets(x []complex128, threshold float64, minPlateau int) []int {
	m := f.Autocorrelation(x)
	var starts []int
	run := 0
	lastEnd := -10 * f.lag
	for i, v := range m {
		if v >= threshold {
			run++
			if run == minPlateau {
				start := i - minPlateau + 1
				if start-lastEnd >= 10*f.lag {
					starts = append(starts, start)
				}
				lastEnd = start
			}
		} else {
			run = 0
		}
	}
	return starts
}
