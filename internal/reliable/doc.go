// Package reliable is the SymBee reliability layer: a sliding-window
// ARQ transport that turns the fire-and-forget broadcast of the base
// scheme into guaranteed in-order message delivery over a lossy
// channel.
//
// The paper supplies both halves of the loop. The forward path is the
// ordinary SymBee data plane: payload-encoded ZigBee packets decoded
// from WiFi idle-listening phases. The reverse path is the §VI-A
// cross-technology coordination channel — the WiFi side can always talk
// back to ZigBee (FreeBee shows the side-channel is essentially free),
// so acknowledgments cost no ZigBee airtime. Crocs motivates the third
// ingredient: the two radios share no clock, so retransmission is
// driven by timeouts with exponential backoff and jitter.
//
// # Protocol
//
// A Session fragments a message through core.Messenger and runs
// go-back-N over the fragments: up to Window frames are in flight,
// acknowledgment is cumulative (each ack carries the next expected
// sequence number), duplicates and out-of-order arrivals are dropped by
// the Receiver, which re-acks its current expectation so lost acks
// self-heal. Loss is detected two ways: a duplicate ack (some frames
// arrived, the base frame did not) triggers an immediate go-back-N
// retransmit; silence (every frame or every ack lost) waits out a
// retransmission timer that backs off exponentially with jitter up to
// MaxRTO.
//
// # Graceful degradation
//
// After EscalateAfter consecutive failed flights the session escalates:
// an empty resync probe (sequence base−1, never acceptable to the
// receiver) first elicits a duplicate cumulative ack that pins the
// acknowledged byte count exactly — lost acks make it a lower bound,
// and re-fragmenting from a stale offset would corrupt the stream —
// then the unacknowledged tail of the message is re-fragmented at
// MaxCodedDataBytes and every subsequent frame is Hamming(7,4)-coded
// end to end (header, sequence, data and CRC — the Fig. 21 robustness
// option), giving single-bit-error correction per 7-bit block at 4/7 of
// the plain rate and a third of the per-frame capacity. The receive
// side needs no negotiation: it first tries the plain decoder and falls
// back to synchronized (sync-mode) Hamming decoding at the preamble
// anchor the plain attempt locked, so mode transitions cannot strand
// frames. After
// DeescalateAfter consecutive clean flights the session de-escalates
// back to plain frames, through the same probe-then-re-cut sequence.
//
// # Testing
//
// SimLink runs the protocol over the real PHY — modulator, channel
// fault injector (internal/channel.FaultInjector: seeded i.i.d. frame
// loss, periodic burst jamming, CFO drift ramps, ack loss) and one
// batch link stack, reset per capture — in the session's virtual time,
// so a 100-run soak over a 4 KiB message takes seconds and is
// bit-reproducible. The soak tests also replay the same traffic as IQ
// through the streaming link stack, which must decode the frames the
// batch stack decodes.
package reliable
