# Shared test-selection gate lists, sourced by scripts/check.sh and the
# CI workflows (.github/workflows/*.yml) so the two cannot drift: the
# -run regexes and race-scoped package list live here and only here.
#
# POSIX sh; no shebang — this file is sourced, not executed.

# Link-stack bit-exactness gate (DESIGN.md §11): committed golden
# fixtures through the reference DecodeFrame and the batch and streaming
# stack presets at every chunk size, stream tagging under any chunking,
# plus the warm-ingest zero-alloc pin.
LINK_EQUIVALENCE_RUN='TestGoldenTraceEquivalence|TestStreamingChunkInvariance|TestStackSteadyStateZeroAlloc'

# Batched preamble-scan gate (DESIGN.md §13): the chunked batch path,
# in every scanner state, and the batch CapturePreamble must match the
# per-sample reference scanner bit for bit, NaN phases included, and
# the warm batch hunt must stay allocation-free. The reference, and the
# copy of the machine's decision loop that drives it, are test code in
# internal/core/scanref_test.go.
HUNT_EQUIVALENCE_RUN='TestHuntScalarBatchEquivalence|TestHuntGateNaNPhases|TestCapturePreambleMatchesScalarScan|TestHuntBatchZeroAlloc'

# Phase kernel gate (DESIGN.md §7): PhaseDiffStream and
# PhaseDiffStreamer.Process share one block kernel, so their agreement
# alone no longer proves bit identity. Both must match the per-sample
# FastAtan2 reference at every chunking, on noise laced with zeros,
# subnormals, near-overflow values, ±Inf and NaN, and the branch-free
# WrapPhase must match its reference bit for bit.
PHASE_EQUIVALENCE_RUN='TestWrapPhaseMatchesReference|TestPhaseKernelMatchesScalar|TestPhaseDiffStreamerMatchesBatch'

# Medium-engine equivalence (DESIGN.md §12): the event-driven lazy
# synthesizer must reproduce the dense reference bit-for-bit.
MEDIUM_EQUIVALENCE_RUN='TestMediumLinkEquivalence'

# Duplex downlink equivalence gate (DESIGN.md §15): link.DownStack
# must match the retired monolithic reverseChannel bit for bit over 100
# randomized seeds (the reference survives verbatim in
# internal/reliable as a test-only pin), and the committed downlink
# golden traces must replay byte-identically at every polling cadence.
# Run over both packages: the golden fixture lives in internal/link,
# the equivalence reference in internal/reliable.
DUPLEX_EQUIVALENCE_RUN='TestDownlinkLayeredEquivalence|TestDownlinkGoldenTraces'

# ARQ acceptance soaks (DESIGN.md §8, §14): the 100-seed forward soak —
# transfers over SimLink's batch receive path, and each seed's soak
# traffic replayed as IQ through the streaming stack, which must decode
# the frames the batch stack decodes — plus the bidirectional soak (10%
# loss forward, 10% per-copy ack loss on the modeled downlink). CI and
# nightly run these with RELIABLE_SOAK_RUNS=100.
ARQ_SOAK_RUN='TestARQSoak|TestARQBidirectionalSoak'

# Packages for race-detector coverage. Audited 2026-08 against the two
# properties that make -race worth its ~10x slowdown: the package spawns
# goroutines (grep for 'go func'/'go ident' outside tests) or owns
# *rand.Rand / splitmix streams whose draw order a race would scramble.
# Goroutine spawners: dsp, link, reliable, stream (plus testutil,
# whose helpers only run inside the importing packages' tests, and the
# cmd/ binaries, which CI exercises via the stream-throughput job).
# RNG owners: the root package, channel, ctc, mac, medium, reliable,
# sim, splitmix, wifi. core stays listed for the decoder state machine
# driven concurrently by stream, and vet for its GOMAXPROCS-bounded
# analyzer fan-out. Re-audited for the duplex refactor: link now also
# owns the downlink's collision RNG (DownSpec.Collide) — it was already
# in scope as a goroutine spawner, so the list is unchanged. sim left
# the spawner list when sim.Run became one in-order loop; it stays in
# scope as an RNG owner.
RACE_PACKAGES='. ./internal/stream/... ./internal/core/... ./internal/reliable/... ./internal/channel/... ./internal/link/... ./internal/medium/... ./internal/ctc/... ./internal/sim/... ./internal/dsp/... ./internal/splitmix/... ./internal/mac/... ./internal/wifi/... ./internal/vet/...'
