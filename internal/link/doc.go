// Package link is the SymBee receive stack: one concrete Stack that
// runs the paper's fixed pipeline — IQ samples → ∠p[n] phase front-end
// (dsp.PhaseDiffStreamer) → preamble scan / frame machine
// (core.FrameMachine) → a reused queue of decode events the owner
// Drains.
//
// Every receive path in the repository is one of two presets of the
// same Stack:
//
//   - NewBatch: phase-fed, unbounded machine history, whole-capture
//     semantics — bit-identical to core's Decoder.DecodeFrame batch
//     entry (the golden-trace equivalence tests pin this). The ARQ
//     SimLink resets one per capture it receives over internal/channel.
//   - NewStreaming: IQ front-end plus bounded history. The public
//     symbee.Receiver is this stack, and the internal/stream pool runs
//     one per open stream.
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
