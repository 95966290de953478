package channel

import (
	"math"
	"math/cmplx"
	"math/rand"

	"symbee/internal/dsp"
	"symbee/internal/splitmix"
)

// FaultConfig describes a deterministic fault profile for link-level
// testing: given the same seed and the same sequence of frames, the
// injector corrupts exactly the same frames in exactly the same way.
// The reliability layer's retry paths are exercised against these
// profiles (internal/reliable), so every knob maps to a failure mode
// the paper's system actually faces.
type FaultConfig struct {
	// Seed makes the profile reproducible. Two injectors with the same
	// config corrupt the same frame sequence identically.
	Seed int64

	// FrameLoss is the i.i.d. probability that a data frame is lost
	// outright (deep fade / collision that destroys the capture).
	FrameLoss float64

	// BurstEvery opens a periodic interference window: starting at every
	// BurstEvery-th frame, BurstLen consecutive frames are hit by a
	// strong in-band WiFi burst (≤0 disables bursts). Frame counting
	// includes retransmissions — a burst stays up while the sender
	// retries into it, exactly like a real microwave-oven or bulk-traffic
	// window.
	BurstEvery int
	// BurstLen is the number of consecutive frames each burst covers.
	BurstLen int
	// BurstSNRdB is the signal-to-interference ratio during a burst;
	// strongly negative values bury the frame. When 0, burst frames are
	// dropped outright instead of jammed.
	BurstSNRdB float64

	// DriftEvery applies a CFO drift ramp (an oscillator warming up —
	// the Crocs failure mode) to every DriftEvery-th frame (≤0 never).
	DriftEvery int
	// DriftRate is the frequency ramp slope in rad/sample² — the
	// instantaneous carrier offset grows linearly across the capture.
	DriftRate float64

	// AckLoss is the i.i.d. probability that a WiFi→ZigBee feedback
	// message (an acknowledgment) is lost on the reverse channel.
	AckLoss float64
}

// FaultInjector applies a FaultConfig to a sequence of per-frame
// captures. It is deterministic (seeded, single-goroutine) and
// stateful: the frame counter drives the periodic burst and drift
// windows.
type FaultInjector struct {
	cfg     FaultConfig
	rng     *rand.Rand // forward loss schedule draws: one per frame, never more
	noise   *rand.Rand // jam sample noise, so jamming can't shift the schedule
	reverse *rand.Rand // reverse-path (ack) draws, independent of the forward path
	frame   int        // frames seen so far

	lost   int
	jammed int
	drifts int
}

// NewFaultInjector returns an injector for the profile, rejecting
// structurally invalid ones (probabilities outside [0,1], negative
// periods). All three streams are split from the schedule seed through
// the repo-wide splitmix convention (stream −4 = forward schedule,
// −1 = noise, −2 = reverse), so the injector, the shared-medium
// simulator and the multi-sender scenario all derive their streams the
// same way — adjacent scenario seeds never correlate, and enabling
// reverse-path faults never shifts which forward frames the loss
// pattern hits.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultInjector{
		cfg:     cfg,
		rng:     splitmix.New(cfg.Seed, splitmix.ScheduleStream),
		noise:   splitmix.New(cfg.Seed, splitmix.NoiseStream),
		reverse: splitmix.New(cfg.Seed, splitmix.ReverseStream),
	}, nil
}

// Apply passes one frame capture through the profile, mutating it in
// place. ok=false means the frame was lost outright (nothing reaches
// the receiver); otherwise the returned slice is the (possibly jammed
// or drifted) capture.
func (fi *FaultInjector) Apply(capture []complex128) (out []complex128, ok bool) {
	i := fi.frame
	fi.frame++
	// i.i.d. loss draws one uniform per frame regardless of outcome, so
	// the burst/drift schedule never shifts the loss pattern.
	lossDraw := fi.rng.Float64()
	if fi.cfg.FrameLoss > 0 && lossDraw < fi.cfg.FrameLoss {
		fi.lost++
		return nil, false
	}
	if fi.cfg.BurstEvery > 0 && fi.cfg.BurstLen > 0 && i%fi.cfg.BurstEvery < fi.cfg.BurstLen {
		if fi.cfg.BurstSNRdB == 0 {
			fi.lost++
			return nil, false
		}
		fi.jam(capture)
		fi.jammed++
	}
	if fi.cfg.DriftEvery > 0 && fi.cfg.DriftRate != 0 && i%fi.cfg.DriftEvery == fi.cfg.DriftEvery-1 {
		fi.driftRamp(capture)
		fi.drifts++
	}
	return capture, true
}

// DropAck reports whether the next reverse-channel acknowledgment
// transmission is lost. Draws come from the injector's private
// reverse-path stream (splitmix stream −2), so the ack schedule and the
// forward loss/burst schedule cannot shift each other.
func (fi *FaultInjector) DropAck() bool {
	return fi.cfg.AckLoss > 0 && fi.reverse.Float64() < fi.cfg.AckLoss
}

// Stats reports how many frames were lost outright, jammed by a burst,
// and hit by a drift ramp.
func (fi *FaultInjector) Stats() (lost, jammed, drifted int) {
	return fi.lost, fi.jammed, fi.drifts
}

// jam buries the capture under complex Gaussian interference at the
// configured (negative) SNR, relative to the capture's own mean power.
func (fi *FaultInjector) jam(x []complex128) {
	if len(x) == 0 {
		return
	}
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	if p == 0 {
		return
	}
	sigma := math.Sqrt(p / dsp.FromDB(fi.cfg.BurstSNRdB) / 2)
	for i := range x {
		x[i] += complex(fi.noise.NormFloat64()*sigma, fi.noise.NormFloat64()*sigma)
	}
}

// driftRamp multiplies the capture by a quadratic phase: an
// instantaneous carrier offset that grows linearly at DriftRate
// rad/sample², i.e. the lag-phase the decoder sees walks steadily away
// from its compensation point until decoding fails mid-frame.
func (fi *FaultInjector) driftRamp(x []complex128) {
	r := fi.cfg.DriftRate
	for i := range x {
		t := float64(i)
		x[i] *= cmplx.Exp(complex(0, 0.5*r*t*t))
	}
}
