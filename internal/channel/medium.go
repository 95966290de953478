package channel

import (
	"math"
	"math/rand"

	"symbee/internal/dsp"
)

// Config assembles one end-to-end channel realization policy.
type Config struct {
	// SampleRate of the receiver in Hz.
	SampleRate float64
	// SNRdB is the target signal-to-noise ratio (full receiver band).
	SNRdB float64
	// FreqOffset is the ZigBee-vs-WiFi carrier offset in Hz; 0 models a
	// baseband-aligned capture (no CFO compensation needed).
	FreqOffset float64
	// BlockFading, when true, multiplies each transmission by one Rician
	// gain with factor RicianK (per-packet flat fading).
	BlockFading bool
	// RicianK is the Rician K-factor for block fading.
	RicianK float64
	// Multipath, when non-nil, replaces block fading with a random
	// tapped-delay-line realization per transmission.
	Multipath *MultipathProfile
	// Interference describes background WiFi traffic.
	Interference InterferenceConfig
	// Mobility, when non-nil, applies a time-varying fading track.
	Mobility *MobilityConfig
	// Pad prepends and appends this many noise-only samples around the
	// transmission, so receivers must find the packet.
	Pad int
}

// Medium applies a Config to transmissions. It is not safe for
// concurrent use; create one per worker with its own rng.
type Medium struct {
	cfg Config
	rng *rand.Rand
	inf *Interferer
	mob *mobilityTrack
}

// NewMedium builds a medium from cfg, drawing all randomness from rng.
func NewMedium(cfg Config, rng *rand.Rand) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inf, err := NewInterferer(cfg.Interference, cfg.SampleRate, rng)
	if err != nil {
		return nil, err
	}
	m := &Medium{cfg: cfg, rng: rng, inf: inf}
	if cfg.Mobility != nil {
		m.mob = newMobilityTrack(*cfg.Mobility, cfg.SampleRate, rng)
	}
	return m, nil
}

// Transmit passes x through the channel and returns the received capture
// (len(x) + 2·Pad samples, signal starting at sample Pad). The input is
// not modified.
func (m *Medium) Transmit(x []complex128) []complex128 {
	sig := make([]complex128, len(x))
	copy(sig, x)
	dsp.NormalizePower(sig, 1)

	switch {
	case m.cfg.Multipath != nil:
		sig = m.cfg.Multipath.Apply(sig, m.rng)
	case m.cfg.BlockFading:
		g := RicianGain(m.cfg.RicianK, m.rng)
		for i := range sig {
			sig[i] *= g
		}
	}
	if m.mob != nil {
		m.mob.apply(sig)
	}
	if m.cfg.FreqOffset != 0 {
		ApplyCFO(sig, m.cfg.FreqOffset, m.cfg.SampleRate)
	}
	amp := complex(math.Sqrt(dsp.FromDB(m.cfg.SNRdB)), 0)
	out := make([]complex128, len(sig)+2*m.cfg.Pad)
	for i, v := range sig {
		out[m.cfg.Pad+i] = v * amp
	}
	m.inf.MixInto(out)
	AddAWGN(out, 1, m.rng)
	return out
}
