// Package medium is the event-driven shared-medium simulator: N seeded
// ZigBee senders contend for one channel into a single WiFi receiver,
// with the capture synthesized lazily instead of materialized whole.
//
// A dense simulator would render every sender's every frame up front
// and superpose them into one slice — O(senders · frames · airtime)
// memory, which caps populations at a room (N ≤ 8); internal/link keeps
// exactly that as its test-only reference. Here the same scenario is a
// discrete-event system:
//
//   - Each sender is a lazily-advanced schedule source: its private
//     splitmix stream (internal/splitmix, stream = sender id) draws the
//     per-sender CFO/SFO/gain impairments and then one exponential idle
//     gap per frame, exactly one draw ahead of the render cursor.
//   - A min-heap event queue admits transmissions in (start, sender)
//     order as the cursor approaches them; admission synthesizes the
//     frame's impaired waveform on demand and streams the collision
//     bookkeeping (interval overlap against the running max-end).
//   - The renderer produces the capture chunk-by-chunk: each chunk is
//     zeroed, every active transmission's overlap is mixed in admission
//     order, and unit receiver noise (splitmix stream −1) is added last
//     — the same per-sample addition order as the dense reference, so
//     captures match bit-for-bit and so does every downstream decode.
//   - A transmission's waveform is freed as soon as the cursor passes
//     its end: peak memory is bounded by the concurrent-overlap width
//     (PeakWindowSamples in the Report), not by total airtime, and idle
//     air costs two Gaussian draws per sample and nothing else.
//
// The engine knows nothing about reception: it pushes chunks into a
// Sink (internal/link wraps a streaming-preset Stack) and is told about
// decoded frames through MarkDecoded. This keeps the dependency
// direction medium ← link and lets any receiver assembly — or none, for
// pure schedule/occupancy studies — consume the same scenario.
package medium
