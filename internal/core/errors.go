package core

import (
	"errors"
	"fmt"
)

// Canonical error sentinels of the decode/encode pipeline. Every error
// the package returns wraps exactly one of these (or one of the
// messenger sentinels in messenger.go), so callers discriminate with
// errors.Is instead of string matching. The more specific names
// (ErrDataTooLong, ErrTruncated) satisfy errors.Is against both
// themselves and the canonical sentinel they wrap.
var (
	// ErrNoPreamble: no SymBee preamble was found in the stream.
	ErrNoPreamble = errors.New("core: no SymBee preamble captured")
	// ErrCRC: a frame arrived but its CRC-16 did not validate.
	ErrCRC = errors.New("core: frame checksum mismatch")
	// ErrBadLength: a length is out of range — data too long to encode,
	// a stream too short to decode, or a header claiming an impossible
	// size.
	ErrBadLength = errors.New("core: bad length")
	// ErrBadVersion: the frame version nibble is not Version.
	ErrBadVersion = errors.New("core: frame version mismatch")
	// ErrBadBit: a bit value other than 0 or 1 was supplied.
	ErrBadBit = errors.New("core: bit value must be 0 or 1")
	// ErrFlushed: data was pushed into a FrameMachine that has already
	// been flushed; Reset it before reuse.
	ErrFlushed = errors.New("core: stream already flushed")
	// ErrBadCompensation: a decoder was asked for a NaN or infinite CFO
	// compensation, which turns every compensated phase into NaN so the
	// receiver could never decode.
	ErrBadCompensation = errors.New("core: CFO compensation must be finite")
)

// Specific sentinels retained from the original per-file taxonomy. Each
// wraps its canonical counterpart: errors.Is(err, ErrDataTooLong) and
// errors.Is(err, ErrBadLength) are both true for an oversized frame.
var (
	// ErrDataTooLong is returned when frame data exceeds MaxDataBytes.
	ErrDataTooLong = fmt.Errorf("%w: frame data exceeds capacity", ErrBadLength)
	// ErrTruncated is returned when the phase stream (or bit string)
	// ends before the frame does.
	ErrTruncated = fmt.Errorf("%w: stream ends before frame does", ErrBadLength)
)
