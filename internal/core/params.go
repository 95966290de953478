package core

import (
	"errors"
	"fmt"
	"math"
)

// SymBee codeword bytes (§IV-A). One payload byte carries one SymBee bit.
const (
	// Bit0Byte is the payload byte for SymBee bit 0: ZigBee symbols (6,7).
	Bit0Byte = 0x67
	// Bit1Byte is the payload byte for SymBee bit 1: ZigBee symbols (E,F).
	Bit1Byte = 0xEF
	// PreambleBits is the number of bit-0 codewords prepended as the
	// SymBee preamble (§V).
	PreambleBits = 4
)

// baseRate is the reference WiFi sampling rate for which the paper
// quotes its sample counts (16-sample lag, 84-value stable run, 640
// samples per bit).
const baseRate = 20e6

// Params holds every sample-count constant of the scheme at a given
// receiver rate. Use Params20 or Params40 for the standard 20/40 MHz
// WiFi configurations, or NewParams for any rate that is an integral
// multiple of 20 Msps.
type Params struct {
	// SampleRate of the WiFi receiver in Hz.
	SampleRate float64
	// Lag is the autocorrelation lag in samples (0.8 µs): 16 at 20 Msps.
	Lag int
	// StableLen is the number of stable phase values per SymBee bit:
	// 84 at 20 Msps, 168 at 40 Msps.
	StableLen int
	// BitPeriod is the spacing of SymBee bits in phase samples: one
	// byte = two ZigBee symbols = 32 µs = 640 samples at 20 Msps.
	BitPeriod int
	// Tau is the error tolerance of unsynchronized detection: a window
	// of StableLen values detects a bit when at least StableLen−Tau
	// share a sign. The paper uses 10 at 20 Msps (§IV-C) and notes the
	// tolerance doubles at 40 MHz (§VI-B).
	Tau int
	// TauSync is the majority-vote threshold of synchronized decoding:
	// StableLen/2 (§V).
	TauSync int
}

// Params20 returns the 20 Msps (802.11g/n 20 MHz) parameter set.
func Params20() Params { p, _ := NewParams(20e6); return p }

// Params40 returns the 40 Msps (802.11n 40 MHz) parameter set.
func Params40() Params { p, _ := NewParams(40e6); return p }

// NewParams derives the parameter set for an arbitrary sample rate that
// is a positive integer multiple of 20 Msps.
func NewParams(sampleRate float64) (Params, error) {
	factorF := sampleRate / baseRate
	factor := int(math.Round(factorF))
	if factor < 1 || math.Abs(factorF-float64(factor)) > 1e-9 {
		return Params{}, fmt.Errorf("core: sample rate %v is not a multiple of 20 Msps", sampleRate)
	}
	return Params{
		SampleRate: sampleRate,
		Lag:        16 * factor,
		StableLen:  84 * factor,
		BitPeriod:  640 * factor,
		Tau:        10 * factor,
		TauSync:    84 * factor / 2,
	}, nil
}

// WithTau returns a copy of p with the unsynchronized tolerance replaced
// (used by the Fig. 22a τ sweep).
func (p Params) WithTau(tau int) Params {
	p.Tau = tau
	return p
}

// BitDuration returns the airtime of one SymBee bit in seconds (32 µs).
func (p Params) BitDuration() float64 {
	return float64(p.BitPeriod) / p.SampleRate
}

// RawBitRate returns the instantaneous SymBee data rate during a
// payload: 1 bit per two ZigBee symbols = 31.25 kbps (§VII).
func (p Params) RawBitRate() float64 {
	return 1 / p.BitDuration()
}

// errSampleRate is Validate's sentinel for a sample rate that is not a
// positive finite number.
var errSampleRate = errors.New("core: sample rate must be positive and finite")

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case !(p.SampleRate > 0) || math.IsInf(p.SampleRate, 1): // !(> 0) is true for NaN
		return fmt.Errorf("%w: %v", errSampleRate, p.SampleRate)
	case p.Lag <= 0 || p.StableLen <= 0 || p.BitPeriod <= 0:
		return fmt.Errorf("core: non-positive sample counts %+v", p)
	case p.Tau < 0 || p.Tau >= p.StableLen:
		return fmt.Errorf("core: tau %d out of [0,%d)", p.Tau, p.StableLen)
	case p.TauSync <= 0 || p.TauSync > p.StableLen:
		return fmt.Errorf("core: tauSync %d out of (0,%d]", p.TauSync, p.StableLen)
	case p.StableLen >= p.BitPeriod:
		return fmt.Errorf("core: stable run %d not shorter than bit period %d", p.StableLen, p.BitPeriod)
	}
	return nil
}
