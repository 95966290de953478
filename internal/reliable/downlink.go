package reliable

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"symbee/internal/ctc"
	"symbee/internal/link"
)

// DownlinkScheme selects the WiFi→ZigBee reverse-channel model that
// carries acknowledgments back to the sender. The non-ideal schemes are
// the packet-level side channels of internal/ctc at their published
// operating points, carrying one-byte cumulative acks; the model itself
// is link.DownStack.
type DownlinkScheme int

const (
	// DownlinkIdeal is the legacy free-reverse-channel assumption: acks
	// arrive the instant the forward frame is delivered, cost no air,
	// never collide, and occupy the transmitter for no time (a downlink
	// stack with zero occupancy quanta). It exists so
	// the clean-channel overhead baseline stays measurable.
	DownlinkIdeal DownlinkScheme = iota
	// DownlinkCMorse carries acks by C-Morse duration modulation:
	// ≈37 ms per one-byte ack at ≈25% duty — fast enough to keep the
	// forward pipe busy, but every ack span is a real collision window.
	DownlinkCMorse
	// DownlinkFreeBee carries acks by FreeBee beacon-timing shifts:
	// ≈512 ms per one-byte ack at ≈0.6% duty — nearly collision-free,
	// but the ack latency dominates the round trip.
	DownlinkFreeBee
	// DownlinkDCTC carries acks by inter-packet gap modulation (2 bits
	// per gap): ≈19 ms per one-byte ack at ≈26% duty, between C-Morse
	// and FreeBee on the latency/duty plane but the fastest of the
	// three modeled points.
	DownlinkDCTC
	// DownlinkEMF carries acks in the energy pattern of slotted frames:
	// ≈20 ms per one-byte ack at ≈17% duty — C-Morse-class latency at
	// a noticeably smaller collision cross-section.
	DownlinkEMF
)

// downlinkTable is the single source of truth tying the DownlinkScheme
// enum to the ctc registry: the bench-artifact name and the scheme
// constructor (nil marks the ideal zero-quanta downlink). String,
// DownlinkSchemes, Modeled and the stack resolver all index it, so the
// enum and the registry cannot drift.
var downlinkTable = [...]struct {
	name   string
	scheme func() ctc.Scheme
}{
	DownlinkIdeal:   {name: "ideal"},
	DownlinkCMorse:  {name: "cmorse", scheme: func() ctc.Scheme { return ctc.NewCMorse() }},
	DownlinkFreeBee: {name: "freebee", scheme: func() ctc.Scheme { return ctc.NewFreeBee() }},
	DownlinkDCTC:    {name: "dctc", scheme: func() ctc.Scheme { return ctc.NewDCTC() }},
	DownlinkEMF:     {name: "emf", scheme: func() ctc.Scheme { return ctc.NewEMF() }},
}

// String names the scheme as it appears in bench artifacts.
func (d DownlinkScheme) String() string {
	if d < 0 || int(d) >= len(downlinkTable) {
		return "unknown"
	}
	return downlinkTable[d].name
}

// Modeled reports whether the scheme models a real reverse channel —
// false only for the ideal baseline.
func (d DownlinkScheme) Modeled() bool {
	return d >= 0 && int(d) < len(downlinkTable) && downlinkTable[d].scheme != nil
}

// DownlinkSchemes lists every modeled reverse channel, ideal first.
func DownlinkSchemes() []DownlinkScheme {
	out := make([]DownlinkScheme, len(downlinkTable))
	for i := range downlinkTable {
		out[i] = DownlinkScheme(i)
	}
	return out
}

// errDownlink rejects unknown DownlinkScheme values.
var errDownlink = errors.New("reliable: unknown downlink scheme")

// Ack timing constants shared by every modeled scheme: a go-back-N
// cumulative ack is one sequence byte, and the WiFi receiver needs a
// fixed turnaround after the forward frame ends before the ack
// transmission can start.
const (
	ackBits       = 8
	ackTurnaround = time.Millisecond
)

// timing resolves the scheme's per-copy ack occupancy at its published
// operating point. The ideal baseline resolves to the zero DownTiming.
func (d DownlinkScheme) timing() (link.DownTiming, error) {
	if d < 0 || int(d) >= len(downlinkTable) {
		return link.DownTiming{}, fmt.Errorf("%w: %d", errDownlink, d)
	}
	entry := downlinkTable[d]
	if entry.scheme == nil {
		return link.DownTiming{}, nil
	}
	scheme := entry.scheme()
	wall, air, err := scheme.Occupancy(ackBits)
	if err != nil {
		return link.DownTiming{}, fmt.Errorf("reliable: %s downlink: %w", scheme.Name(), err)
	}
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	return link.DownTiming{Wall: sec(wall), Air: sec(air), Base: ackTurnaround}, nil
}

// newDownStack builds the downlink stack for the scheme.
// repeat ≥ 1 is the caller's responsibility (SimConfig.Validate
// enforces it).
func (d DownlinkScheme) newDownStack(repeat int, dropCopy func() bool, collide *rand.Rand) (*link.DownStack, error) {
	t, err := d.timing()
	if err != nil {
		return nil, err
	}
	return link.NewDownStack(link.DownSpec{
		Timing:   t,
		Repeat:   repeat,
		DropCopy: dropCopy,
		Collide:  collide,
	})
}
