package link

import (
	"errors"
	"time"
)

// Duplex validation errors.
var (
	// ErrNilUplink reports a duplex built without its decode stack.
	ErrNilUplink = errors.New("link: duplex needs an uplink Stack")
	// ErrNilDownlink reports a duplex built without its downlink stack.
	ErrNilDownlink = errors.New("link: duplex needs a DownStack")
)

// Duplex pairs an uplink decode Stack with a downlink DownStack on one
// shared virtual clock: the forward path pushes IQ/phases down the
// decode pipeline while acks ride the reverse channel back, and
// the half-duplex coupling between them — a forward frame colliding
// with an ack burst on the air — is resolved here. The duplex owns
// neither clock nor goroutine: like its halves it is discrete-event,
// stamped by the caller, and owned by one goroutine.
type Duplex struct {
	up   *Stack
	down *DownStack
}

// NewDuplex composes the two halves.
func NewDuplex(up *Stack, down *DownStack) (*Duplex, error) {
	if up == nil {
		return nil, ErrNilUplink
	}
	if down == nil {
		return nil, ErrNilDownlink
	}
	return &Duplex{up: up, down: down}, nil
}

// Up returns the uplink decode stack.
func (d *Duplex) Up() *Stack { return d.up }

// Down returns the downlink stack.
func (d *Duplex) Down() *DownStack { return d.down }

// ForwardCollides resolves a forward frame on the air over [start, end]
// against the reverse channel: it advances the downlink to the frame's
// end so ack copies starting mid-frame participate, then draws the
// half-duplex collision outcomes. It reports whether the forward frame
// was destroyed.
func (d *Duplex) ForwardCollides(start, end time.Duration) bool {
	d.down.Advance(end)
	return d.down.CollideForward(start, end)
}
