package ctc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"symbee/internal/splitmix"
)

// Medium is a shared RSSI timeline: linear received power per sample at
// a fixed sampling rate. Transmitters add energy bursts; receivers
// detect them by thresholding. The noise floor is exponentially
// distributed around unit mean power (envelope-detected thermal noise).
type Medium struct {
	rate float64
	rssi []float64
}

// MediumConfig parameterizes one shared RSSI timeline. Like
// medium.Config, no field doubles as a sentinel: every value is taken
// literally. Start from DefaultMedium() and override what the run
// needs.
type MediumConfig struct {
	// Duration is the covered timespan in seconds (> 0; DefaultMedium
	// leaves it zero on purpose — there is no implicit run length).
	Duration float64
	// Rate is the RSSI sampling rate in Hz (> 0; DefaultMedium fills
	// 100 kHz, ≈10 µs timing resolution, comparable to commodity RSSI
	// registers).
	Rate float64
	// Seed drives the noise fill. The noise generator is split from it
	// through the repo-wide splitmix convention (stream −1), so a
	// scenario that also seeds senders from the same value never
	// correlates its noise with their schedules.
	Seed int64
}

// DefaultMedium returns the baseline medium configuration. Duration is
// left zero; the caller must set it (Validate rejects it unset).
func DefaultMedium() MediumConfig {
	return MediumConfig{Rate: defaultRSSIRate}
}

// MediumConfig validation errors.
var (
	errMediumDuration = errors.New("ctc: medium Duration must be positive")
	errMediumRate     = errors.New("ctc: medium Rate must be positive")
)

// Validate reports the first structural problem with the config.
func (c MediumConfig) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("%w: %v", errMediumDuration, c.Duration)
	case c.Rate <= 0:
		return fmt.Errorf("%w: %v", errMediumRate, c.Rate)
	}
	return nil
}

// NewMedium allocates a medium covering cfg.Duration seconds sampled at
// cfg.Rate Hz, pre-filled with seeded noise.
func NewMedium(cfg MediumConfig) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(math.Ceil(cfg.Duration * cfg.Rate))
	m := &Medium{rate: cfg.Rate, rssi: make([]float64, n)}
	rng := splitmix.New(cfg.Seed, splitmix.NoiseStream)
	for i := range m.rssi {
		m.rssi[i] = rng.ExpFloat64() // unit-mean noise power
	}
	return m, nil
}

// Duration returns the covered timespan in seconds.
func (m *Medium) Duration() float64 { return float64(len(m.rssi)) / m.rate }

// AddBurst adds a transmission of the given duration and signal-to-noise
// power (dB over the unit noise floor) starting at time start seconds.
// Bursts clipped by the medium edges are truncated.
func (m *Medium) AddBurst(start, duration, snrDB float64) {
	p := math.Pow(10, snrDB/10)
	lo := int(start * m.rate)
	hi := int((start + duration) * m.rate)
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.rssi) {
		hi = len(m.rssi)
	}
	for i := lo; i < hi; i++ {
		m.rssi[i] += p
	}
}

// AddInterference sprinkles WiFi bursts over the whole timeline with the
// given duty cycle, burst duration and power, mimicking the background
// traffic the packet-level receivers must reject.
func (m *Medium) AddInterference(duty, burstDuration, inrDB float64, rng *rand.Rand) {
	if duty <= 0 || burstDuration <= 0 {
		return
	}
	meanGap := burstDuration * (1 - duty) / duty
	t := rng.ExpFloat64() * meanGap
	for t < m.Duration() {
		m.AddBurst(t, burstDuration, inrDB)
		t += burstDuration + rng.ExpFloat64()*meanGap
	}
}

// Burst is one detected energy burst.
type Burst struct {
	// Start time in seconds.
	Start float64
	// Duration in seconds.
	Duration float64
}

// rssiSmoothWindow is the hardware RSSI averaging span in samples:
// commodity radios average received power over ≈8 symbol periods
// (~128 µs ≈ 13 samples at the default 100 kHz RSSI rate), which is what
// keeps single-sample noise spikes from registering as energy.
const rssiSmoothWindow = 8

// DetectBursts finds contiguous stretches where the (hardware-averaged)
// RSSI exceeds thresholdDB above the noise floor, closing gaps shorter
// than mergeGap and dropping bursts shorter than minDuration.
func (m *Medium) DetectBursts(thresholdDB, mergeGap, minDuration float64) []Burst {
	th := math.Pow(10, thresholdDB/10)
	gapSamples := int(mergeGap * m.rate)
	minSamples := int(minDuration * m.rate)

	// Hardware-style moving average; the window is centered to keep
	// burst timing unbiased.
	smoothed := make([]float64, len(m.rssi))
	var acc float64
	for i, v := range m.rssi {
		acc += v
		if i >= rssiSmoothWindow {
			acc -= m.rssi[i-rssiSmoothWindow]
		}
		n := rssiSmoothWindow
		if i+1 < n {
			n = i + 1
		}
		center := i - rssiSmoothWindow/2
		if center >= 0 {
			smoothed[center] = acc / float64(n)
		}
	}
	for i := len(m.rssi) - rssiSmoothWindow/2; i < len(m.rssi); i++ {
		if i >= 0 {
			smoothed[i] = m.rssi[i]
		}
	}

	var bursts []Burst
	start, gap := -1, 0
	flush := func(end int) {
		if start >= 0 && end-start >= minSamples {
			bursts = append(bursts, Burst{
				Start:    float64(start) / m.rate,
				Duration: float64(end-start) / m.rate,
			})
		}
		start = -1
	}
	for i, v := range smoothed {
		if v >= th {
			if start < 0 {
				start = i
			}
			gap = 0
			continue
		}
		if start >= 0 {
			gap++
			if gap > gapSamples {
				flush(i - gap + 1)
				gap = 0
			}
		}
	}
	if start >= 0 {
		flush(len(m.rssi) - gap)
	}
	return bursts
}

// MeanRSSI returns the average linear power over [start, start+duration).
func (m *Medium) MeanRSSI(start, duration float64) float64 {
	lo := int(start * m.rate)
	hi := int((start + duration) * m.rate)
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.rssi) {
		hi = len(m.rssi)
	}
	if hi <= lo {
		return 0
	}
	var s float64
	for i := lo; i < hi; i++ {
		s += m.rssi[i]
	}
	return s / float64(hi-lo)
}
