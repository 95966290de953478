package symbee

import (
	"symbee/internal/core"
	"symbee/internal/reliable"
)

// Unified error taxonomy. Every failure the public surface can return
// wraps (or is) one of these sentinels, so callers discriminate with
// errors.Is instead of matching message strings:
//
//	frame, err := link.ReceiveFrame(capture)
//	switch {
//	case errors.Is(err, symbee.ErrNoPreamble): // nothing SymBee in the capture
//	case errors.Is(err, symbee.ErrCRC):        // frame arrived, checksum failed
//	case errors.Is(err, symbee.ErrBadLength):  // truncated stream or oversized data
//	}
//
// The reliability layer adds ErrWindowFull (its send window cannot
// accept another frame) and ErrTimeout (the retransmission budget is
// exhausted). The streaming receivers add ErrFlushed (a push after
// Flush) and ErrBadCompensation (a NaN or infinite WithCompensation,
// refused by NewReceiver and NewPool).
var (
	// ErrNoPreamble: no SymBee preamble was found in the capture.
	ErrNoPreamble = core.ErrNoPreamble
	// ErrCRC: a frame arrived but its CRC-16 did not validate.
	ErrCRC = core.ErrCRC
	// ErrBadLength: a length is out of range — data too long to encode,
	// a capture too short to decode, or a header claiming an impossible
	// size. Wrapped by the more specific core sentinels (ErrDataTooLong,
	// ErrTruncated), so errors.Is works against either granularity.
	ErrBadLength = core.ErrBadLength
	// ErrWindowFull: the ARQ send window has no room for another frame.
	ErrWindowFull = reliable.ErrWindowFull
	// ErrTimeout: the ARQ retransmission budget was exhausted without an
	// acknowledgment.
	ErrTimeout = reliable.ErrTimeout
	// ErrFlushed: a Receiver push after Flush ended its stream.
	ErrFlushed = core.ErrFlushed
	// ErrBadCompensation: a NaN or infinite CFO compensation.
	ErrBadCompensation = core.ErrBadCompensation
)
