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
//     order as the cursor approaches them; admission spreads the frame
//     into its chip stream, sets up the sender's SFO ratio, gain and
//     CFO rotator, and streams the collision bookkeeping (interval
//     overlap against the running max-end).
//   - The renderer produces the capture chunk-by-chunk in one pass:
//     each chunk is zeroed, every active transmission's stretch is
//     modulated from its chips, resampled, rotated, scaled and added in
//     admission order, and unit receiver noise (splitmix stream −1) is
//     added last — the same per-sample operations and addition order
//     as the dense reference, so captures match bit-for-bit and so does
//     every downstream decode.
//   - No waveform is held: memory is the chunk, one chunk-sized source
//     buffer and a chip stream per active transmission, bounded by the
//     concurrent-overlap width (PeakOverlap in the Report), not by
//     total airtime, and idle air costs two Gaussian draws per sample
//     and nothing else.
//
// The engine knows nothing about reception: it pushes chunks into a
// Sink (internal/link wraps a streaming-preset Stack) and is told about
// decoded frames through MarkDecoded. This keeps the dependency
// direction medium ← link and lets any receiver assembly — or none, for
// pure schedule/occupancy studies — consume the same scenario.
package medium
