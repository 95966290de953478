package reliable

import (
	"symbee/internal/core"
	"symbee/internal/link"
)

// Receiver is the ARQ receive side: it accepts decoded frames in
// whatever order the channel produces them, drops duplicates and
// out-of-order arrivals (go-back-N buffers nothing ahead of the
// expectation), feeds the in-order stream through a core.Reassembler
// and answers every delivery with its cumulative ack: the sequence
// number of the next frame it expects, everything before it delivered.
type Receiver struct {
	expected byte
	asm      core.Reassembler
	msgs     [][]byte
	metrics  *link.Metrics
}

// NewReceiver returns an ARQ receiver expecting sequence 0. The metrics
// registry is optional; when set, duplicate drops are counted there.
func NewReceiver(m *link.Metrics) *Receiver {
	return &Receiver{metrics: m}
}

// Deliver accepts one decoded frame and returns the cumulative ack to
// send back: the next expected sequence number. A frame that is not
// the expected next sequence — a duplicate from a retransmission, or a
// later frame whose predecessor was lost — is dropped, and the repeated
// ack tells the sender where the window really stands.
func (r *Receiver) Deliver(f *core.Frame) (byte, error) {
	if f.Seq != r.expected {
		if r.metrics != nil {
			r.metrics.DupDrops.Add(1)
		}
		return r.expected, nil
	}
	msg, done, err := r.asm.Add(f)
	if err != nil {
		// The reassembler resynchronizes internally; surface the error
		// but keep the cumulative ack honest.
		return r.expected, err
	}
	r.expected = f.Seq + 1
	if done {
		r.msgs = append(r.msgs, msg)
	}
	return r.expected, nil
}

// Messages drains the completely reassembled messages, in order.
func (r *Receiver) Messages() [][]byte {
	out := r.msgs
	r.msgs = nil
	return out
}
