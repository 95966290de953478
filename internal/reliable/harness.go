package reliable

import (
	"fmt"
	"time"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/link"
	"symbee/internal/splitmix"
	"symbee/internal/zigbee"
)

// SimConfig parameterizes a SimLink. No field doubles as a sentinel;
// start from DefaultSimConfig and override what the scenario needs.
type SimConfig struct {
	// Params is the receiver parameter set.
	Params core.Params
	// Faults is the channel fault profile (see ProfileSoak/ProfileBidir
	// for ready-made ones; the zero value is a clean channel).
	Faults channel.FaultConfig
	// Downlink selects the reverse-channel model carrying acks back.
	Downlink DownlinkScheme
	// AckRepeat transmits each committed ack this many times (≥ 1).
	AckRepeat int
	// Metrics optionally shares a registry; nil leaves the link
	// uninstrumented.
	Metrics *link.Metrics
}

// DefaultSimConfig returns the baseline link: Params20, clean channel
// and a C-Morse ack downlink without repetition.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Params:    core.Params20(),
		Downlink:  DownlinkCMorse,
		AckRepeat: 1,
	}
}

// errAckRepeat rejects non-positive ack repetition counts.
var errAckRepeat = fmt.Errorf("reliable: AckRepeat must be at least 1")

// Validate reports the first structural problem with the config.
func (c SimConfig) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("reliable: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("reliable: %w", err)
	}
	if c.AckRepeat < 1 {
		return fmt.Errorf("%w: %d", errAckRepeat, c.AckRepeat)
	}
	if _, err := c.Downlink.timing(); err != nil {
		return err
	}
	return nil
}

// SimLink is a reliable.Transport that runs entirely over a
// link.Duplex: every forward frame goes through the real SymBee PHY —
// modulator, fault-injected channel, WiFi phase-extraction front end
// and the duplex's uplink decode Stack (a NewBatch stack, reset per
// capture) — and the ARQ receive side, then the resulting cumulative
// ack rides the duplex's downlink stack back. Acks cost reverse
// airtime, arrive one downlink-latency late, can be lost on the reverse
// path and can collide with forward frames; the DownlinkIdeal scheme
// builds the stack with zero occupancy quanta for baselines.
//
// The link holds one waveform buffer and one phase buffer and renders
// every forward frame into them, so a warm Send allocates only the
// small frame encodings. Both grow on the first Send that needs more
// room, never in NewSimLink. A SimLink is owned by one goroutine (its
// session); it is not safe for concurrent use.
type SimLink struct {
	phy     *core.Link
	dec     *core.Decoder
	inj     *channel.FaultInjector
	arq     *Receiver
	duplex  *link.Duplex
	metrics *link.Metrics
	wave    []complex128 // the last forward frame, faulted in place
	phases  []float64    // its phase stream, which both decode trials read
}

// NewSimLink builds the simulated link.
func NewSimLink(cfg SimConfig) (*SimLink, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phy, err := core.NewLink(cfg.Params, 0)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	m := cfg.Metrics
	inj, err := channel.NewFaultInjector(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	l := &SimLink{
		phy:     phy,
		dec:     phy.Decoder(),
		inj:     inj,
		arq:     NewReceiver(m),
		metrics: m,
	}
	// The reverse path draws from its own splitmix streams so toggling
	// ack loss or collisions never shifts the forward fault schedule.
	dropCopy := func() bool {
		if l.inj.DropAck() {
			if l.metrics != nil {
				l.metrics.AcksLost.Add(1)
			}
			return true
		}
		return false
	}
	down, err := cfg.Downlink.newDownStack(cfg.AckRepeat, dropCopy,
		splitmix.New(cfg.Faults.Seed, splitmix.CollisionStream))
	if err != nil {
		return nil, err
	}
	// One whole-capture stack, reset per capture: identical semantics
	// to a per-capture Decoder.DecodeFrame, without rebuilding the
	// machine each time.
	up, err := link.NewBatch(l.dec, m)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	l.duplex, err = link.NewDuplex(up, down)
	if err != nil {
		return nil, fmt.Errorf("reliable: %w", err)
	}
	return l, nil
}

// Messages drains the fully reassembled messages delivered so far.
func (l *SimLink) Messages() [][]byte { return l.arq.Messages() }

// FaultStats reports the injector's lost/jammed/drifted frame counts.
//
//symbee:ignore reach -- bench/equiv_test.go and the harsh-profile soak test read the fault counts with it
func (l *SimLink) FaultStats() (lost, jammed, drifted int) { return l.inj.Stats() }

// Duplex returns the duplex pipeline the link runs over (for ledger
// inspection and tests).
func (l *SimLink) Duplex() *link.Duplex { return l.duplex }

// ReverseStats reports the downlink's ack ledger: copies sent, airtime
// spent, coalesced, dropped and collided.
func (l *SimLink) ReverseStats() link.DownlinkLedger {
	return l.duplex.Down().Ledger()
}

// AckLatency implements Transport.
func (l *SimLink) AckLatency() time.Duration { return l.duplex.Down().Latency() }

// Acks implements Transport: the downlink's reused arrival queue,
// valid until the next call.
func (l *SimLink) Acks(now time.Duration) []link.TimedEvent {
	return l.duplex.Down().Arrivals(now)
}

// NextArrival implements Transport.
func (l *SimLink) NextArrival(now time.Duration) (time.Duration, bool) {
	return l.duplex.Down().NextArrival(now)
}

// Send implements Transport: encode (plain or Hamming-coded), modulate,
// resolve collisions with any reverse ack on the air, pass through the
// fault injector, receive, deliver to the ARQ side and hand the
// cumulative ack to the downlink. Delivery feedback never returns here —
// it arrives later through Acks, stamped with the downlink's latency.
func (l *SimLink) Send(now time.Duration, f *core.Frame, coded bool) (time.Duration, error) {
	var payload []byte
	var err error
	if coded {
		payload, err = EncodeCodedFrame(f)
	} else {
		payload, err = core.EncodeFrame(f)
	}
	airtime := FrameAirtime(len(f.Data), coded)
	if err != nil {
		return 0, err
	}
	end := now + airtime
	if l.duplex.ForwardCollides(now, end) {
		l.lose()
		return airtime, nil
	}
	wave, err := l.modulate(payload)
	if err != nil {
		return airtime, err
	}
	capture, ok := l.inj.Apply(wave)
	if !ok {
		l.lose()
		return airtime, nil
	}
	frame := l.receive(capture)
	if frame == nil {
		l.lose()
		return airtime, nil
	}
	next, _ := l.arq.Deliver(frame)
	l.duplex.Down().Generate(end, next, false)
	return airtime, nil
}

// lose counts a forward frame the receiver never got, when the link is
// instrumented.
func (l *SimLink) lose() {
	if l.metrics != nil {
		l.metrics.FramesLost.Add(1)
	}
}

// modulate renders payload's waveform, bit for bit
// core.Link.PayloadToSignal's, into the held buffer and returns exactly
// the frame's samples: the fault injector's jam power and drift ramp
// both read the slice's length.
func (l *SimLink) modulate(payload []byte) ([]complex128, error) {
	chips, err := l.phy.PayloadToChips(payload)
	if err != nil {
		return nil, err
	}
	mod := l.phy.Modulator()
	n := (len(chips) + 1) * mod.SamplesPerSlot()
	if cap(l.wave) < n {
		l.wave = make([]complex128, n)
	}
	l.wave = l.wave[:n]
	mod.ModulateChipsRange(l.wave, chips, 0)
	return l.wave, nil
}

// receive runs the capture through the batch stack and trial-decodes:
// plain first, then synchronized Hamming-coded at the preamble anchor
// the stack locked. The receiver never learns the sender's mode — a
// coded frame fails the plain version check immediately (its first
// coded nibble parses as version 4), which is what makes
// negotiation-free escalation work. A batch lock always ends in a frame
// or a failure, so a capture with neither never locked a preamble and
// there is no anchor for the coded trial to read at.
func (l *SimLink) receive(capture []complex128) *core.Frame {
	l.phases = l.phy.AppendPhases(l.phases[:0], capture)
	up := l.duplex.Up()
	up.Reset()
	up.PushPhases(l.phases)
	up.Flush()
	frame, anchor, failed := terminalEvent(up.Drain())
	if frame == nil && failed {
		frame, _ = decodeCodedNear(l.dec, l.phases, anchor)
	}
	return frame
}

// terminalEvent scans drained stack events for the capture's outcome:
// the decoded frame, or the anchor of the first locked preamble that
// failed to decode. The first failure comes from the capture's first
// lock, whose anchor is the one Decoder.CapturePreamble selects.
func terminalEvent(events []link.Event) (frame *core.Frame, anchor int, failed bool) {
	for _, ev := range events {
		switch ev.Kind {
		case core.EventFrame:
			frame = ev.Frame
		case core.EventDecodeError:
			if !failed {
				anchor, failed = ev.Anchor, true
			}
		}
	}
	return frame, anchor, failed
}

// Close releases nothing: the batch stack keeps no state between
// captures, and the held waveform and phase buffers go with the link.
// It remains so callers can pair NewSimLink with Close.
func (l *SimLink) Close() {}

// FrameAirtime is the forward ZigBee airtime of one SymBee frame
// carrying dataBytes of application data, in the given coding mode.
// Both the harness and the overhead baseline use it, so the ≤5%
// comparison is apples to apples.
func FrameAirtime(dataBytes int, coded bool) time.Duration {
	bits := core.HeaderBits + 8*dataBytes + core.CRCBits
	if coded {
		bits = codedLen(bits)
	}
	return time.Duration(zigbee.Airtime(core.PreambleBits+bits) * float64(time.Second))
}

// PlainAirtime is the total forward airtime a plain fire-and-forget
// Messenger spends on a msgLen-byte message: the baseline the ARQ
// overhead criterion is measured against.
func PlainAirtime(msgLen int) time.Duration {
	var at time.Duration
	for msgLen > 0 {
		n := msgLen
		if n > core.MaxDataBytes {
			n = core.MaxDataBytes
		}
		at += FrameAirtime(n, false)
		msgLen -= n
	}
	return at
}

// ProfileSoak is the acceptance fault profile: 10% i.i.d. frame loss,
// a periodic strong-interference burst window, and 5% ack loss.
func ProfileSoak(seed int64) channel.FaultConfig {
	return channel.FaultConfig{
		Seed:       seed,
		FrameLoss:  0.10,
		BurstEvery: 64,
		BurstLen:   6,
		BurstSNRdB: -18,
		AckLoss:    0.05,
	}
}

// ProfileBidir is the bidirectional acceptance profile: 10% loss on the
// forward path and 10% per-copy loss on the reverse path, plus the soak
// profile's interference bursts.
func ProfileBidir(seed int64) channel.FaultConfig {
	cfg := ProfileSoak(seed)
	cfg.AckLoss = 0.10
	return cfg
}
