// Package symbee is a Go implementation of SymBee, the symbol-level
// ZigBee→WiFi cross-technology communication (CTC) scheme of Wang, Kim
// and He (ICDCS 2018), together with the full simulation substrate the
// reproduction runs on.
//
// A SymBee sender is any IEEE 802.15.4 (ZigBee) node: it conveys bits to
// a WiFi receiver simply by placing codeword bytes in its packet payload
// (0x67 per 0-bit, 0xEF per 1-bit — "payload encoding"). The WiFi
// receiver recycles the phase output of its always-on packet-detection
// autocorrelation: each codeword cross-observes as an 84-sample run of
// stable phase at ±4π/5, decoded by sign with majority voting. The raw
// rate is 31.25 kbps — ≈145× the fastest packet-level ZigBee→WiFi CTC.
//
// # Quick start
//
//	link, err := symbee.NewLink(symbee.Params20(), symbee.CanonicalCompensation)
//	sig, err := link.TransmitFrame(&symbee.Frame{Seq: 1, Data: []byte("hi")})
//	ch, err := symbee.NewChannel(symbee.ChannelConfig{Scenario: "office", Distance: 10, Seed: 1})
//	capture, err := ch.Transmit(sig)
//	frame, err := link.ReceiveFrame(capture)
//
// For multi-frame payloads use Messenger, which fragments and
// reassembles transparently. The underlying layers (802.15.4 PHY, WiFi
// front-end, channel models, baseline CTC schemes, experiment harness)
// live in internal/ packages; cmd/symbeebench regenerates every figure
// of the paper's evaluation.
package symbee

import (
	"errors"
	"fmt"
	"math"

	"symbee/internal/channel"
	"symbee/internal/coding"
	"symbee/internal/core"
	"symbee/internal/wifi"
	"symbee/internal/zigbee"
)

// Re-exported core types. The aliases make the internal implementation
// usable through the public module surface.
type (
	// Params holds the sample-rate-dependent constants of the scheme.
	Params = core.Params
	// Frame is one SymBee message frame.
	Frame = core.Frame
	// Link is the full encode→modulate / front-end→decode pipeline.
	Link = core.Link
	// Decoder converts WiFi idle-listening phase streams to bits.
	Decoder = core.Decoder
	// DetectedBit is one unsynchronized detection.
	DetectedBit = core.DetectedBit
)

// Re-exported constructors and constants.
var (
	// Params20 returns the 20 MHz WiFi (20 Msps) parameter set.
	Params20 = core.Params20
	// Params40 returns the 40 MHz WiFi (40 Msps) parameter set (§VI-B).
	Params40 = core.Params40
	// NewLink builds a link; compensation is CanonicalCompensation for
	// realistic channels and 0 for baseband-aligned captures.
	NewLink = core.NewLink
	// NewDecoder builds a standalone phase decoder.
	NewDecoder = core.NewDecoder
	// EncodeFrame serializes a frame into ZigBee payload bytes.
	EncodeFrame = core.EncodeFrame
	// EncodeBits maps raw bits into ZigBee payload bytes (preamble
	// prepended).
	EncodeBits = core.EncodeBits
	// DecodeBroadcastPayload is the ZigBee-side receiver of a
	// cross-technology broadcast (§VI-A).
	DecodeBroadcastPayload = core.DecodeBroadcastPayload
)

// Codeword and frame constants.
const (
	// Bit0Byte is the payload codeword for bit 0 (symbols 6,7).
	Bit0Byte = core.Bit0Byte
	// Bit1Byte is the payload codeword for bit 1 (symbols E,F).
	Bit1Byte = core.Bit1Byte
	// MaxDataBytes is the largest Frame.Data payload.
	MaxDataBytes = core.MaxDataBytes
	// RawBitRate is the instantaneous SymBee data rate in bits/second.
	RawBitRate = 31250.0
)

// CanonicalCompensation is the channel-frequency-offset correction of
// Appendix B: +4π/5, identical for every overlapping WiFi/ZigBee channel
// pair.
var CanonicalCompensation = wifi.CanonicalCompensation

// Link-layer coding re-exports (the Fig. 21 robustness option).
var (
	// HammingEncodeBits protects a bit string with Hamming(7,4).
	HammingEncodeBits = coding.HammingEncodeBits
	// HammingDecodeBits decodes and single-error-corrects the stream.
	HammingDecodeBits = coding.HammingDecodeBits
	// BytesToBits and BitsToBytes convert between packed bytes and the
	// one-bit-per-byte representation used on the SymBee air interface.
	BytesToBits = coding.BytesToBits
	BitsToBytes = coding.BitsToBytes
)

// ReceiveZigBee decodes a capture as a standard ZigBee receiver would —
// the other half of a cross-technology broadcast (§VI-A): the same
// packet that WiFi reads from phase patterns is a legitimate ZigBee
// packet whose payload a ZigBee neighbour reads natively. It returns
// the MAC payload; pass it to DecodeBroadcastPayload for the SymBee
// message.
func ReceiveZigBee(capture []complex128, sampleRate float64) ([]byte, error) {
	demod, err := zigbee.NewDemodulator(sampleRate)
	if err != nil {
		return nil, err
	}
	return demod.Receive(capture)
}

// ChannelConfig selects a simulated radio environment by scenario name
// ("outdoor", "library", "classroom", "dormitory", "office", "mall",
// "office-midnight" — the paper's Fig. 15 sites).
type ChannelConfig struct {
	// Scenario preset name.
	Scenario string
	// Distance sender→receiver in meters.
	Distance float64
	// TxPowerDBm of the ZigBee sender (0 dBm is the TelosB maximum).
	TxPowerDBm float64
	// Walls between sender and receiver (NLOS).
	Walls int
	// SampleRate of the receiving WiFi front-end (default 20 Msps).
	SampleRate float64
	// SpeedMps, when positive, puts the sender in motion (Fig. 23):
	// Doppler-rate fading plus body/bag blockage tuned to the speed.
	SpeedMps float64
	// SameTechnology marks the receiver as tuned to the sender's own
	// channel (a ZigBee neighbour receiving the broadcast) instead of a
	// WiFi device observing from an offset center frequency: no carrier
	// offset is applied.
	SameTechnology bool
	// Seed makes the channel reproducible.
	Seed int64
}

// DefaultChannelConfig returns the baseline environment: the outdoor
// scenario at 5 m, TelosB-maximum transmit power, a 20 Msps receiver
// and no walls, motion or seed offset.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		Scenario:   "outdoor",
		Distance:   5,
		SampleRate: 20e6,
	}
}

// Channel config validation errors.
var (
	errChanNegative  = errors.New("symbee: channel parameter must not be negative")
	errChanNonFinite = errors.New("symbee: channel parameter must be finite")
)

// Validate reports the first structural problem with the config. The
// scenario name itself is resolved (and rejected) by NewChannel via
// the preset registry.
func (c ChannelConfig) Validate() error {
	// NaN fails every ordered comparison below and +Inf passes them,
	// so either would otherwise reach the channel model.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Distance", c.Distance},
		{"TxPowerDBm", c.TxPowerDBm},
		{"SampleRate", c.SampleRate},
		{"SpeedMps", c.SpeedMps},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s %v", errChanNonFinite, f.name, f.v)
		}
	}
	switch {
	case c.Distance < 0:
		return fmt.Errorf("%w: Distance %v", errChanNegative, c.Distance)
	case c.SampleRate < 0:
		return fmt.Errorf("%w: SampleRate %v", errChanNegative, c.SampleRate)
	case c.Walls < 0:
		return fmt.Errorf("%w: Walls %d", errChanNegative, c.Walls)
	case c.SpeedMps < 0:
		return fmt.Errorf("%w: SpeedMps %v", errChanNegative, c.SpeedMps)
	}
	return nil
}

// Channel is a reproducible simulated medium between a ZigBee sender and
// a WiFi receiver. Each Transmit draws fresh shadowing, fading, noise
// and interference per the scenario.
type Channel struct {
	cfg ChannelConfig
	sc  channel.Scenario
	rng *lockedRand
}

// NewChannel builds a channel for the given scenario. The zero values
// of SampleRate and Distance keep their legacy meaning (20 Msps, 5 m);
// start from DefaultChannelConfig to spell the baseline out.
func NewChannel(cfg ChannelConfig) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 20e6
	}
	if cfg.Distance == 0 {
		cfg.Distance = 5
	}
	sc, err := channel.ByName(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	return &Channel{cfg: cfg, sc: sc, rng: newLockedRand(cfg.Seed)}, nil
}

// Transmit passes one ZigBee transmission through the scenario and
// returns the WiFi receiver's capture. Safe for concurrent use.
func (c *Channel) Transmit(signal []complex128) ([]complex128, error) {
	rng := c.rng.fork()
	cfg := c.sc.Config(c.cfg.SampleRate, c.cfg.Distance, c.cfg.TxPowerDBm, c.cfg.Walls, rng)
	if c.cfg.SpeedMps > 0 {
		mob := channel.MobilityPreset(c.cfg.SpeedMps)
		cfg.Mobility = &mob
		cfg.BlockFading = false
	}
	if c.cfg.SameTechnology {
		cfg.FreqOffset = 0
	}
	med, err := channel.NewMedium(cfg, rng)
	if err != nil {
		return nil, err
	}
	return med.Transmit(signal), nil
}
