// Package stream is the real-time streaming receiver pool: it ingests
// unbounded IQ (or phase) streams from many concurrent links in
// arbitrarily sized chunks and decodes SymBee frames, with the same
// always-on idle-listening posture the paper's WiFi receiver has — the
// front-end never stops producing autocorrelation phases, so neither
// does the decoder.
//
// Each open stream is one streaming-preset internal/link Stack
// (link.NewStreaming): the incremental dsp.PhaseDiffStreamer front-end
// feeding a bounded-history core.FrameMachine (≈124 KiB per stream at
// 20 Msps while hunting). A capture split at any offset decodes exactly
// as a batch pass over the whole capture would.
//
// NewPool(ctx, cfg) is the one constructor: it starts N workers and,
// when ctx can be canceled, closes the pool on cancellation. Each
// stream is sharded to one worker by ID and its stack is touched only
// by that worker, so the hot path takes no locks. Bounded queues give
// explicit backpressure (block) or load-shedding (drop, accounted).
// Every stack reports into the pool's link.Metrics registry — chunks
// and samples in, phases produced, preamble locks, frames decoded and
// failed, drops, and per-stage latency.
//
// cmd/symbeestream replays trace files (or stdin IQ) through the pool
// at a target sample rate and prints throughput plus the metrics
// snapshot. Receive speed is measured, and gated in CI, by the
// benchmark under bench/ (its idle_air and busy_air workloads).
package stream
