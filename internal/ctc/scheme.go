package ctc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Scheme is a packet-level CTC modulation: it writes bits onto a shared
// RSSI medium and reads them back by energy sensing.
type Scheme interface {
	// Name identifies the scheme ("C-Morse", "FreeBee", ...).
	Name() string
	// NominalRate is the scheme's raw data rate in bits/second.
	NominalRate() float64
	// Validate reports whether the scheme's operating point is usable:
	// positive durations, shift alphabets that fit their grid, and so
	// on. Encode and Occupancy reject invalid points with the same
	// error.
	Validate() error
	// Occupancy returns the expected channel occupancy of one
	// nBits-bit message over balanced data: wall is the elapsed channel
	// time from first to last symbol (including framing and trailing
	// gaps), air the on-air transmit time within it, both in seconds.
	// Schemes whose timing depends on the data (C-Morse durations, DCTC
	// gaps) report the balanced-data expectation, which is what a
	// downlink budget needs.
	Occupancy(nBits int) (wall, air float64, err error)
	// Encode places the transmission for bits onto m starting at time
	// start (seconds) with the given burst SNR, returning the airtime
	// consumed.
	Encode(m *Medium, bits []byte, start, snrDB float64) (airtime float64, err error)
	// Decode recovers up to nBits bits from m. Fewer bits may be
	// returned when detection loses packets.
	Decode(m *Medium, nBits int) ([]byte, error)
}

// errNBits rejects Occupancy calls for empty messages.
var errNBits = errors.New("ctc: Occupancy needs a positive bit count")

// finite reports whether no value is NaN or ±Inf. Every Validate checks
// it first: a range check alone passes NaN, and +Inf is positive.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Result summarizes one measured run of a scheme.
type Result struct {
	Scheme string
	// Goodput is correct bits per second of airtime.
	Goodput float64
	// BER among the decoded bits (lost bits count as errors).
	BER float64
}

// Measure runs one scheme over a fresh medium: it encodes random bits,
// optionally overlays interference, decodes, and reports goodput and
// BER. detectionSNR is the burst power over the noise floor.
func Measure(s Scheme, nBits int, detectionSNR float64, interference *InterferenceEnv, rng *rand.Rand) (Result, error) {
	bits := make([]byte, nBits)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	// Generous timeline: nominal airtime plus margin. The medium's
	// noise seed is drawn from the caller's rng so repeated Measure
	// calls see fresh noise while staying reproducible.
	m, err := NewMedium(MediumConfig{
		Duration: float64(nBits)/s.NominalRate()*1.5 + 1,
		Rate:     defaultRSSIRate,
		Seed:     rng.Int63(),
	})
	if err != nil {
		return Result{}, err
	}
	airtime, err := s.Encode(m, bits, 0.1, detectionSNR)
	if err != nil {
		return Result{}, fmt.Errorf("ctc: %s encode: %w", s.Name(), err)
	}
	if interference != nil {
		m.AddInterference(interference.DutyCycle, interference.BurstDuration, interference.INRdB, rng)
	}
	got, err := s.Decode(m, nBits)
	if err != nil {
		return Result{}, fmt.Errorf("ctc: %s decode: %w", s.Name(), err)
	}
	errors := 0
	for i := 0; i < nBits; i++ {
		if i >= len(got) || got[i] != bits[i] {
			errors++
		}
	}
	correct := nBits - errors
	return Result{
		Scheme:  s.Name(),
		Goodput: float64(correct) / airtime,
		BER:     float64(errors) / float64(nBits),
	}, nil
}

// InterferenceEnv mirrors channel.InterferenceConfig for the RSSI-level
// medium.
type InterferenceEnv struct {
	DutyCycle     float64
	BurstDuration float64
	INRdB         float64
}

// defaultRSSIRate is the RSSI sampling rate used by Measure: 100 kHz
// gives 10 µs timing resolution, comparable to commodity RSSI registers.
const defaultRSSIRate = 100e3

// All returns one instance of every baseline scheme in Fig. 16 order.
func All() []Scheme {
	return []Scheme{
		NewFreeBee(),
		NewAFreeBee(),
		NewEMF(),
		NewDCTC(),
		NewCMorse(),
	}
}
