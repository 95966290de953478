// Package link is the SymBee receive stack: one concrete Stack that
// runs the paper's fixed pipeline — IQ samples → ∠p[n] phase front-end
// (dsp.PhaseDiffStreamer) → preamble scan / frame machine
// (core.FrameMachine) → a reused queue of decode events the owner
// Drains.
//
// Every receive path in the repository runs this one Stack, with the
// same bounded machine history, so a capture decodes to the same events
// whether it is pushed whole or in any chunking. The public
// symbee.Receiver is a Stack, the internal/stream pool runs one per
// open stream, and the ARQ SimLink resets one (NewBatch) per capture
// it receives over internal/channel. core.Decoder.DecodeFrame runs the
// same machine over a phase capture and returns its first terminal
// event. The committed golden fixtures, decoded at every ingest chunk
// size, and internal/core's whole-against-chunked tests pin the stack.
//
// The Stack's push path keeps the repository's zero-alloc steady-state
// guarantee (//symbee:hotpath roots, pinned by AllocsPerRun tests), and
// its stages report into the one Metrics registry shared by the
// receivers, the pool and the reliability layer.
//
// The downlink half of a duplex link lives here too: DownStack models
// the serial WiFi→ZigBee ack channel as one transmitter with a
// pending-ack slot, a busy horizon and the copies in flight with their
// loss and collision outcomes; Duplex pairs it with an uplink Stack,
// and DownlinkLedger is its ack accounting.
//
// RunMedium (medium.go) is the shared-medium scenario entry point: the
// internal/medium engine synthesizes N seeded ZigBee senders with
// independent CFO/SFO, timing and gain offsets into one capture, a
// streaming Stack receives it, and decoded frames are credited back to
// their senders for per-sender delivery and collision accounting.
package link
