package channel

import (
	"errors"
	"fmt"
	"math"
)

// This file is the config contract of the channel package: every
// exported config type has an explicit Default* baseline and a
// Validate() error method, and every constructor validates before it
// reads a field (the internal/medium convention, enforced repo-wide by
// symbeevet's confvalid rule).

// DefaultConfig returns the baseline channel realization policy: a
// 20 Msps receiver observing from the nominal WiFi↔ZigBee carrier
// offset at 20 dB SNR, no fading, no interference, no padding. Override
// what the scenario needs; the named Scenario presets build richer
// configs via Scenario.Config.
func DefaultConfig() Config {
	return Config{
		SampleRate: 20e6,
		SNRdB:      20,
		FreqOffset: DefaultFreqOffset,
	}
}

// DefaultFaultConfig returns the clean fault profile: every failure
// mode disabled. Enable the modes a test needs field by field — the
// zero value of each knob means "off", never "default on".
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{}
}

// DefaultInterferenceConfig returns the quiet-channel baseline: no
// ambient WiFi traffic.
func DefaultInterferenceConfig() InterferenceConfig {
	return InterferenceConfig{}
}

// DefaultMobilityConfig returns the walking-pace mobility baseline
// (MobilityPreset at 1.5 m/s, the paper's pedestrian track).
func DefaultMobilityConfig() MobilityConfig {
	return MobilityPreset(1.5)
}

// Config validation errors.
var (
	errNonFinite  = errors.New("channel: non-finite parameter")
	errSampleRate = errors.New("channel: sample rate must be positive")
	errPad        = errors.New("channel: negative pad")
	errRicianK    = errors.New("channel: negative Rician K-factor")
	errProb       = errors.New("channel: probability outside [0,1]")
	errBurst      = errors.New("channel: negative burst geometry")
	errDrift      = errors.New("channel: negative drift period")
	errDuty       = errors.New("channel: duty cycle outside [0,1]")
	errBurstDur   = errors.New("channel: negative burst duration")
	errMobility   = errors.New("channel: negative mobility parameter")
)

// namedFloat is one float field of a config, named for its error.
type namedFloat struct {
	name string
	v    float64
}

// checkFinite reports the first NaN or ±Inf among the fields. It runs
// before every range check: each ordered comparison is false for NaN,
// so a range check alone passes a NaN parameter, and the capture it
// shapes turns NaN.
func checkFinite(fields ...namedFloat) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s %v", errNonFinite, f.name, f.v)
		}
	}
	return nil
}

// Validate reports the first structural problem with the config,
// chaining into the embedded interference and mobility configs.
func (c Config) Validate() error {
	if err := checkFinite(
		namedFloat{"SampleRate", c.SampleRate},
		namedFloat{"SNRdB", c.SNRdB},
		namedFloat{"FreqOffset", c.FreqOffset},
		namedFloat{"RicianK", c.RicianK},
	); err != nil {
		return err
	}
	switch {
	case c.SampleRate <= 0:
		return fmt.Errorf("%w: %v", errSampleRate, c.SampleRate)
	case c.Pad < 0:
		return fmt.Errorf("%w: %d", errPad, c.Pad)
	case c.RicianK < 0:
		return fmt.Errorf("%w: %v", errRicianK, c.RicianK)
	}
	if err := c.Interference.Validate(); err != nil {
		return err
	}
	if c.Mobility != nil {
		return c.Mobility.Validate()
	}
	return nil
}

// Validate reports the first structural problem with the fault profile.
func (c FaultConfig) Validate() error {
	if err := checkFinite(
		namedFloat{"FrameLoss", c.FrameLoss},
		namedFloat{"AckLoss", c.AckLoss},
		namedFloat{"BurstSNRdB", c.BurstSNRdB},
		namedFloat{"DriftRate", c.DriftRate},
	); err != nil {
		return err
	}
	switch {
	case c.FrameLoss < 0 || c.FrameLoss > 1:
		return fmt.Errorf("%w: FrameLoss %v", errProb, c.FrameLoss)
	case c.AckLoss < 0 || c.AckLoss > 1:
		return fmt.Errorf("%w: AckLoss %v", errProb, c.AckLoss)
	case c.BurstEvery < 0 || c.BurstLen < 0:
		return fmt.Errorf("%w: every %d, len %d", errBurst, c.BurstEvery, c.BurstLen)
	case c.DriftEvery < 0:
		return fmt.Errorf("%w: %d", errDrift, c.DriftEvery)
	}
	return nil
}

// Validate reports the first structural problem with the interference
// model.
func (c InterferenceConfig) Validate() error {
	if err := checkFinite(
		namedFloat{"DutyCycle", c.DutyCycle},
		namedFloat{"BurstDuration", c.BurstDuration},
		namedFloat{"INRdB", c.INRdB},
	); err != nil {
		return err
	}
	switch {
	case c.DutyCycle < 0 || c.DutyCycle > 1:
		return fmt.Errorf("%w: %v", errDuty, c.DutyCycle)
	case c.BurstDuration < 0:
		return fmt.Errorf("%w: %v", errBurstDur, c.BurstDuration)
	}
	return nil
}

// Validate reports the first structural problem with the mobility
// track.
func (c MobilityConfig) Validate() error {
	if err := checkFinite(
		namedFloat{"SpeedMps", c.SpeedMps},
		namedFloat{"RicianK", c.RicianK},
		namedFloat{"BlockageRate", c.BlockageRate},
		namedFloat{"BlockageLossDB", c.BlockageLossDB},
		namedFloat{"BlockageDuration", c.BlockageDuration},
	); err != nil {
		return err
	}
	switch {
	case c.SpeedMps < 0:
		return fmt.Errorf("%w: SpeedMps %v", errMobility, c.SpeedMps)
	case c.RicianK < 0:
		return fmt.Errorf("%w: RicianK %v", errMobility, c.RicianK)
	case c.BlockageRate < 0:
		return fmt.Errorf("%w: BlockageRate %v", errMobility, c.BlockageRate)
	case c.BlockageDuration < 0:
		return fmt.Errorf("%w: BlockageDuration %v", errMobility, c.BlockageDuration)
	}
	return nil
}
