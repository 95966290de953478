package symbee

import "symbee/internal/link"

// Link-stack re-exports: the layered receive pipeline of internal/link
// through the public surface. Every receive path in this repository —
// the batch decode, the streaming pool sessions and the reliable
// harness — is one configuration of the same Stack.
type (
	// Stack is the composed receive pipeline: optional IQ front end →
	// frame machine → pending event queue.
	Stack = link.Stack
	// StackSpec configures a custom Stack assembly.
	StackSpec = link.Spec
	// Duplex pairs an uplink decode Stack with a downlink ack stack
	// behind one composed surface — the full link of the reliable
	// transport.
	Duplex = link.Duplex
	// DownStack is the reverse channel: ack coalescer → occupancy →
	// loss/collision fault stage → arrival queue.
	DownStack = link.DownStack
	// DownSpec configures a DownStack assembly.
	DownSpec = link.DownSpec
	// DownTiming is an explicit downlink timing point (an alternative
	// to resolving a CTC scheme).
	DownTiming = link.DownTiming
	// DownlinkLedger is the DownStack's cross-stage accounting.
	DownlinkLedger = link.DownlinkLedger
	// TimedEvent is one timestamped ack arrival emitted by the downlink
	// stack.
	TimedEvent = link.TimedEvent
)

var (
	// NewStack assembles a custom pipeline from a spec.
	NewStack = link.New
	// NewBatchStack is the whole-capture preset: phase-fed, unbounded
	// history, bit-identical to the historical Decoder.DecodeFrame.
	NewBatchStack = link.NewBatch
	// NewStreamingStack is the bounded-history incremental preset used
	// by pool sessions (IQ front end included).
	NewStreamingStack = link.NewStreaming
	// NewDownStack assembles a downlink ack stack from a spec.
	NewDownStack = link.NewDownStack
	// NewDuplex pairs an uplink Stack with a DownStack.
	NewDuplex = link.NewDuplex
)
