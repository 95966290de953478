package core

import (
	"errors"
	"fmt"
)

// Flag bits carried in Frame.Flags by the Messenger protocol.
const (
	// FlagMore marks a fragment that is not the last of its message.
	FlagMore = 0x1
)

// Messenger errors.
var (
	// ErrEmptyMessage is returned when fragmenting a zero-length message.
	ErrEmptyMessage = errors.New("core: empty message")
	// ErrFragmentGap is returned by the Reassembler when a fragment's
	// sequence number does not continue the message being assembled.
	ErrFragmentGap = errors.New("core: fragment sequence gap")
)

// Messenger fragments arbitrary byte messages into SymBee frames. One
// ZigBee packet carries at most MaxDataBytes of frame data, so longer
// messages span several packets, chained by consecutive sequence
// numbers with FlagMore set on every fragment but the last.
//
// A Messenger is a sender-side object; it is not safe for concurrent
// use.
type Messenger struct {
	link *Link
	seq  byte
}

// NewMessenger wraps a link. link may be nil for a Messenger used only
// to Fragment (the reliability layer modulates through its own
// transport).
func NewMessenger(link *Link) *Messenger {
	return &Messenger{link: link}
}

// Seq returns the next sequence number the Messenger will assign.
func (m *Messenger) Seq() byte { return m.seq }

// SetSeq rewinds (or advances) the sequence counter. The reliability
// layer uses this to re-fragment the unacknowledged tail of a message
// at a different fragment size without breaking sequence continuity.
func (m *Messenger) SetSeq(s byte) { m.seq = s }

// Fragment splits msg into frames ready for transmission, consuming
// sequence numbers.
func (m *Messenger) Fragment(msg []byte) ([]*Frame, error) {
	return m.FragmentSize(msg, MaxDataBytes)
}

// FragmentSize is Fragment with an explicit fragment capacity of
// 1..MaxDataBytes data bytes per frame. Smaller fragments trade goodput
// for robustness: the reliability layer re-cuts at MaxCodedDataBytes
// when it escalates to Hamming-coded frames.
func (m *Messenger) FragmentSize(msg []byte, segSize int) ([]*Frame, error) {
	if len(msg) == 0 {
		return nil, ErrEmptyMessage
	}
	if segSize < 1 || segSize > MaxDataBytes {
		return nil, fmt.Errorf("%w: fragment size %d", ErrBadLength, segSize)
	}
	nFrames := (len(msg) + segSize - 1) / segSize
	frames := make([]*Frame, 0, nFrames)
	for i := 0; i < nFrames; i++ {
		lo := i * segSize
		hi := lo + segSize
		if hi > len(msg) {
			hi = len(msg)
		}
		f := &Frame{
			Seq:  m.seq,
			Data: append([]byte{}, msg[lo:hi]...),
		}
		if i < nFrames-1 {
			f.Flags = FlagMore
		}
		m.seq++
		frames = append(frames, f)
	}
	return frames, nil
}

// Signals fragments msg and modulates every fragment into its ZigBee
// baseband transmission.
//
//symbee:ignore reach -- README's Messenger example calls it, and its tests pin the fragments
func (m *Messenger) Signals(msg []byte) ([][]complex128, error) {
	frames, err := m.Fragment(msg)
	if err != nil {
		return nil, err
	}
	out := make([][]complex128, len(frames))
	for i, f := range frames {
		sig, err := m.link.TransmitFrame(f)
		if err != nil {
			return nil, fmt.Errorf("core: fragment %d: %w", i, err)
		}
		out[i] = sig
	}
	return out, nil
}

// Reassembler rebuilds messages from received frames. It tolerates
// duplicate deliveries of the current fragment but reports gaps, after
// which it discards the partial message and resynchronizes on the next
// message start.
//
// Nothing marks a fragment as a message start — sequence numbers run
// continuously across messages — so the only recognizable boundary is
// the far side of a final fragment (FlagMore clear). After a gap the
// reassembler therefore drops frames until one with FlagMore clear has
// passed; the frame after that begins a fresh message. Accepting
// arbitrary frames right after a gap instead (as this type originally
// did) delivers truncated messages: lose the last fragment of one
// message and the tail fragments of the NEXT message come back as a
// complete short message.
type Reassembler struct {
	buf     []byte
	nextSeq byte
	active  bool
	resync  bool
}

// Add feeds one received frame. When the frame completes a message the
// message is returned with done=true. A sequence gap returns
// ErrFragmentGap and discards the partial message; subsequent frames
// are silently dropped (msg=nil, done=false, err=nil) until a message
// boundary restores synchronization.
func (r *Reassembler) Add(f *Frame) (msg []byte, done bool, err error) {
	if r.resync {
		// Still inside a message whose head is lost: every fragment up
		// to and including the next final one belongs to it.
		if f.Flags&FlagMore == 0 {
			r.resync = false
		}
		return nil, false, nil
	}
	if r.active {
		switch {
		case f.Seq == r.nextSeq-1 && f.Flags&FlagMore != 0:
			return nil, false, nil // duplicate of the previous fragment
		case f.Seq != r.nextSeq:
			r.Reset()
			// The gap frame itself is consumed by resynchronization:
			// if it ends a message the stream is back at a boundary,
			// otherwise keep dropping until one does.
			r.resync = f.Flags&FlagMore != 0
			return nil, false, fmt.Errorf("%w: got seq %d", ErrFragmentGap, f.Seq)
		}
	}
	r.active = true
	r.nextSeq = f.Seq + 1
	r.buf = append(r.buf, f.Data...)
	if f.Flags&FlagMore != 0 {
		return nil, false, nil
	}
	out := r.buf
	r.Reset()
	return out, true, nil
}

// Reset returns the reassembler to a fresh state: any partially
// assembled message is discarded and the next frame fed to Add starts a
// new message, even if a gap had left the reassembler resynchronizing.
func (r *Reassembler) Reset() {
	r.buf = nil
	r.active = false
	r.nextSeq = 0
	r.resync = false
}
