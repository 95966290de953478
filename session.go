package symbee

import (
	"time"

	"symbee/internal/channel"
	"symbee/internal/link"
	"symbee/internal/reliable"
)

// Reliability re-exports: the bidirectional ARQ session of
// internal/reliable through the public surface.
type (
	// Session is the ARQ send side: fragment, transmit under a sliding
	// window, retransmit on loss, escalate coding on persistent loss.
	Session = reliable.Session
	// SessionConfig parameterizes a Session (see DefaultSessionConfig).
	SessionConfig = reliable.Config
	// SessionReport summarizes one Session.Send.
	SessionReport = reliable.Report
	// Transport carries frames forward and surfaces acks asynchronously;
	// SimLink is the simulated implementation.
	Transport = reliable.Transport
	// AckEvent is one cumulative ack arriving at the sender over the
	// reverse channel: Seq is the next sequence number the receiver
	// expects, Gen when the receiver generated the ack and At when it
	// landed, both in the session's virtual time.
	AckEvent = link.TimedEvent
	// DownlinkScheme selects the WiFi→ZigBee reverse-channel model.
	DownlinkScheme = reliable.DownlinkScheme
	// ReverseStats is a transport's reverse-channel ledger.
	ReverseStats = link.DownlinkLedger
	// SimLink runs frames through the simulated PHY and a modeled ack
	// downlink.
	SimLink = reliable.SimLink
	// SimConfig parameterizes a SimLink (see DefaultSimConfig).
	SimConfig = reliable.SimConfig
	// FaultConfig is the simulated channel fault profile.
	FaultConfig = channel.FaultConfig
)

// Downlink scheme selectors.
const (
	// DownlinkIdeal: instant, free, lossless acks (baselines only).
	DownlinkIdeal = reliable.DownlinkIdeal
	// DownlinkCMorse: ≈38 ms one-byte acks at ≈25% duty.
	DownlinkCMorse = reliable.DownlinkCMorse
	// DownlinkFreeBee: ≈513 ms one-byte acks at ≈0.6% duty.
	DownlinkFreeBee = reliable.DownlinkFreeBee
	// DownlinkDCTC: ≈19 ms one-byte acks at ≈26% duty — the fastest
	// modeled operating point.
	DownlinkDCTC = reliable.DownlinkDCTC
	// DownlinkEMF: ≈20 ms one-byte acks at ≈17% duty — C-Morse-class
	// latency with a smaller collision cross-section.
	DownlinkEMF = reliable.DownlinkEMF
)

// Reliability constructors and defaults.
var (
	// DownlinkSchemes lists every modeled reverse channel, ideal first.
	DownlinkSchemes = reliable.DownlinkSchemes
	// DefaultSessionConfig is the baseline session configuration.
	DefaultSessionConfig = reliable.DefaultConfig
	// DefaultSimConfig is the baseline simulated link: clean channel,
	// C-Morse ack downlink.
	DefaultSimConfig = reliable.DefaultSimConfig
	// DefaultFaultConfig is the clean fault profile baseline.
	DefaultFaultConfig = channel.DefaultFaultConfig
	// NewSimLink builds a simulated link from a SimConfig.
	NewSimLink = reliable.NewSimLink
)

// sessionOptions is the resolved option state of NewSession.
type sessionOptions struct {
	cfg       SessionConfig
	sim       SimConfig
	transport Transport
}

// SessionOption configures NewSession. The zero configuration is a
// working session over a clean simulated link with the C-Morse ack
// downlink; pass WithTransport to drive a transport of your own.
type SessionOption func(*sessionOptions)

// WithTransport runs the session over tx instead of building a
// simulated link. The downlink, fault and ack-repeat options only
// apply to the built-in link and are ignored with a custom transport.
func WithTransport(tx Transport) SessionOption {
	return func(o *sessionOptions) { o.transport = tx }
}

// WithDownlink selects the reverse-channel model of the built-in
// simulated link (default DownlinkCMorse).
func WithDownlink(d DownlinkScheme) SessionOption {
	return func(o *sessionOptions) { o.sim.Downlink = d }
}

// WithAckRepeat transmits each ack n times on the built-in link's
// downlink — loss protection at the price of duplicate arrivals.
func WithAckRepeat(n int) SessionOption {
	return func(o *sessionOptions) { o.sim.AckRepeat = n }
}

// WithFaults applies a fault profile to the built-in simulated link.
func WithFaults(fc FaultConfig) SessionOption {
	return func(o *sessionOptions) { o.sim.Faults = fc }
}

// WithWindow sets the maximum number of in-flight frames.
func WithWindow(n int) SessionOption {
	return func(o *sessionOptions) { o.cfg.Window = n }
}

// WithRTO sets the initial and maximum retransmission timeouts. The
// session still floors them against the transport's ack latency.
func WithRTO(initial, max time.Duration) SessionOption {
	return func(o *sessionOptions) {
		o.cfg.InitialRTO = initial
		o.cfg.MaxRTO = max
	}
}

// WithRetries sets how many consecutive no-progress flights are
// tolerated before Send fails with ErrTimeout.
func WithRetries(n int) SessionOption {
	return func(o *sessionOptions) { o.cfg.MaxRetries = n }
}

// WithEscalation sets the coding-mode thresholds: escalate to
// Hamming-coded frames after `after` silent flights, de-escalate after
// `deescalateAfter` clean ones. Zero disables either transition.
func WithEscalation(after, deescalateAfter int) SessionOption {
	return func(o *sessionOptions) {
		o.cfg.EscalateAfter = after
		o.cfg.DeescalateAfter = deescalateAfter
	}
}

// WithSeed pins the jitter and fault schedules for reproducibility.
func WithSeed(seed int64) SessionOption {
	return func(o *sessionOptions) {
		o.cfg.Seed = seed
		o.sim.Faults.Seed = seed
	}
}

// WithSessionMetrics shares an external metrics registry across the
// session and the built-in link.
func WithSessionMetrics(m *Metrics) SessionOption {
	return func(o *sessionOptions) {
		o.cfg.Metrics = m
		o.sim.Metrics = m
	}
}

// NewSession builds a reliable ARQ session, mirroring the option style
// of NewReceiver and NewPool. Without WithTransport it also builds the
// simulated link the session runs over:
//
//	sess, err := symbee.NewSession(symbee.WithDownlink(symbee.DownlinkFreeBee),
//		symbee.WithWindow(4), symbee.WithSeed(7))
//	rep, err := sess.Send(ctx, msg)
//
// To reach the receive side (delivered messages, reverse-channel
// stats), build the link explicitly and hand it in:
//
//	link, err := symbee.NewSimLink(symbee.DefaultSimConfig())
//	sess, err := symbee.NewSession(symbee.WithTransport(link))
func NewSession(opts ...SessionOption) (*Session, error) {
	o := sessionOptions{cfg: DefaultSessionConfig(), sim: DefaultSimConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	tx := o.transport
	if tx == nil {
		sl, err := NewSimLink(o.sim)
		if err != nil {
			return nil, err
		}
		tx = sl
	}
	return reliable.NewSession(tx, o.cfg)
}
