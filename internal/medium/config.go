package medium

import (
	"errors"
	"fmt"
	"math"

	"symbee/internal/core"
)

// Config parameterizes one shared-medium scenario. No field doubles as
// a sentinel: every value is taken literally, so a genuine 0 dB
// scenario (SNRdB = 0) and a back-to-back schedule (MeanGapAirtimes =
// 0) are both representable. Start from Defaults() and override what
// the scenario needs; link.RunMedium runs it.
type Config struct {
	// Params is the receiver parameter set (explicit; Defaults() fills
	// core.Params20).
	Params core.Params
	// Senders is the number of independent ZigBee transmitters (≥ 1,
	// ≤ 65536). Identities above 255 need DataBytes ≥ 3 so the high
	// identity byte fits the payload.
	Senders int
	// FramesPerSender is how many frames each sender transmits
	// (1..256; the per-frame sequence byte must stay unambiguous).
	FramesPerSender int
	// Seed drives every random draw. Streams are split per sender via
	// internal/splitmix (receiver noise is stream −1); equal seeds
	// reproduce the scenario bit-for-bit.
	Seed int64
	// SNRdB is the per-sender signal-to-noise ratio before the gain
	// spread is applied. Taken literally: 0 means 0 dB.
	SNRdB float64
	// MeanGapAirtimes is each sender's mean exponential idle gap
	// between frames, as a multiple of one frame airtime (an unslotted
	// ALOHA offered load of 1/(1+gap) per sender). Taken literally:
	// 0 means back-to-back transmission.
	MeanGapAirtimes float64
	// CFOJitterHz spreads each sender's carrier offset uniformly in
	// ±CFOJitterHz around channel.DefaultFreqOffset. Zero keeps every
	// sender at the nominal offset.
	CFOJitterHz float64
	// SFOppm spreads each sender's sampling clock uniformly in ±SFOppm
	// parts per million (below 1e6, so every drawn clock still runs
	// forwards; see channel.ApplySFO). Zero disables SFO.
	SFOppm float64
	// GainSpreadDB spreads each sender's receive power uniformly in
	// ±GainSpreadDB around SNRdB (near-far effect). Zero makes all
	// senders equally strong.
	GainSpreadDB float64
	// DataBytes is the frame payload size (1..core.MaxDataBytes).
	// Byte 0 carries the low identity byte, byte 1 the sequence number,
	// byte 2 (when present) the high identity byte.
	DataBytes int
	// ChunkSamples is the synthesis window and receive chunk size in
	// samples (> 0). It bounds the renderer's scratch memory and is the
	// granularity at which the sink sees the capture.
	ChunkSamples int
}

// Defaults returns the baseline scenario configuration: 20 Msps
// receiver, 20 dB SNR, mean gap of 4 airtimes, 4 payload bytes, 4096
// sample chunks. Senders, FramesPerSender and Seed are left zero; the
// caller must set the first two (Validate rejects them unset, on
// purpose — there is no implicit population size).
func Defaults() Config {
	return Config{
		Params:          core.Params20(),
		SNRdB:           20,
		MeanGapAirtimes: 4,
		DataBytes:       4,
		ChunkSamples:    4096,
	}
}

// Config validation errors.
var (
	errSenders   = errors.New("medium: need at least one sender and one frame per sender")
	errTooMany   = errors.New("medium: more than 65536 senders")
	errFrames    = errors.New("medium: more than 256 frames per sender (sequence byte ambiguous)")
	errDataBytes = errors.New("medium: DataBytes out of range")
	errIdentity  = errors.New("medium: sender identities above 255 need DataBytes >= 3")
	errGap       = errors.New("medium: negative MeanGapAirtimes")
	errJitter    = errors.New("medium: negative impairment spread")
	errSFORange  = errors.New("medium: SFOppm must be below 1e6 (a sender's clock would stop or run backwards)")
	errNonFinite = errors.New("medium: non-finite scenario parameter")
	errChunk     = errors.New("medium: ChunkSamples must be positive")
)

// maxSFOppm bounds SFOppm: a sender draws its offset in ±SFOppm, and
// channel.ApplySFO needs every offset above −1e6 ppm.
const maxSFOppm = 1e6

// Validate reports the first structural problem with the config.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("medium: %w", err)
	}
	// Every ordered comparison below is false for NaN, so a NaN
	// impairment would otherwise run silently as "none".
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SNRdB", c.SNRdB},
		{"MeanGapAirtimes", c.MeanGapAirtimes},
		{"CFOJitterHz", c.CFOJitterHz},
		{"SFOppm", c.SFOppm},
		{"GainSpreadDB", c.GainSpreadDB},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s = %v", errNonFinite, f.name, f.v)
		}
	}
	switch {
	case c.Senders < 1 || c.FramesPerSender < 1:
		return errSenders
	case c.Senders > 1<<16:
		return fmt.Errorf("%w: %d", errTooMany, c.Senders)
	case c.FramesPerSender > 256:
		return fmt.Errorf("%w: %d", errFrames, c.FramesPerSender)
	case c.DataBytes < 1 || c.DataBytes > core.MaxDataBytes:
		return fmt.Errorf("%w: %d", errDataBytes, c.DataBytes)
	case c.Senders > 256 && c.DataBytes < 3:
		return fmt.Errorf("%w: %d senders, %d data bytes", errIdentity, c.Senders, c.DataBytes)
	case c.MeanGapAirtimes < 0:
		return fmt.Errorf("%w: %v", errGap, c.MeanGapAirtimes)
	case c.CFOJitterHz < 0 || c.SFOppm < 0 || c.GainSpreadDB < 0:
		return fmt.Errorf("%w: cfo %v, sfo %v, gain %v", errJitter,
			c.CFOJitterHz, c.SFOppm, c.GainSpreadDB)
	case c.SFOppm >= maxSFOppm:
		return fmt.Errorf("%w: %v", errSFORange, c.SFOppm)
	case c.ChunkSamples <= 0:
		return fmt.Errorf("%w: %d", errChunk, c.ChunkSamples)
	}
	return nil
}

// OfferedLoadPerSender returns the nominal unslotted offered load of
// one sender: the fraction of time it spends transmitting,
// 1/(1+MeanGapAirtimes).
func (c Config) OfferedLoadPerSender() float64 {
	return 1 / (1 + c.MeanGapAirtimes)
}
