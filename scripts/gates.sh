# Shared test-selection gate lists, sourced by scripts/check.sh and the
# CI workflows (.github/workflows/*.yml) so the two cannot drift: the
# -run regexes and race-scoped package list live here and only here.
#
# POSIX sh; no shebang — this file is sourced, not executed.

# Link-stack bit-exactness gate (DESIGN.md §11): committed golden
# fixtures must decode to their recorded frames through DecodeFrame and
# through batch and streaming stacks at every chunk size, stream tagging
# must hold under any chunking, plus the warm-ingest zero-alloc pin.
LINK_EQUIVALENCE_RUN='TestGoldenTraceEquivalence|TestStreamingChunkInvariance|TestStackSteadyStateZeroAlloc'

# Batched preamble-scan gate (DESIGN.md §13): the chunked batch path,
# in every scanner state, and the batch CapturePreamble must match the
# per-sample reference scanner bit for bit, NaN phases and
# out-of-range phases at compensation 0 included, and the warm batch
# hunt must stay allocation-free. The reference, and the copy of the
# machine's decision loop that drives it, are test code in
# internal/core/scanref_test.go. Two guards the reference shares with
# production, and so cannot check, are pinned directly: a re-arm
# behind the scan position, after trim has cut history, resumes at the
# scan position, and the floor of the window selection reads is one
# stream index in every chunking, 2 phases past the history's start at
# 1-phase chunks. Batch and streaming run one bounded machine
# (DESIGN.md §11.2): a multi-frame capture pushed whole must emit the
# events of every chunked push, re-arms and decode errors included,
# DecodeFrame must report the whole push's first terminal event, and
# selection after a maximal frame must not read back across the re-arm
# point in any chunking.
HUNT_EQUIVALENCE_RUN='TestHuntScalarBatchEquivalence|TestHuntGateNaNPhases|TestHuntRearmBehindScanPosition|TestSelectionFloor|TestCapturePreambleMatchesScalarScan|TestHuntBatchZeroAlloc|TestBatchMatchesStreamingMultiFrame|TestChunkInvarianceAfterMaximalFrames'

# Phase kernel gate (DESIGN.md §7): PhaseDiffStream and
# PhaseDiffStreamer.Process share one block kernel, so their agreement
# alone no longer proves bit identity. Both must match the per-sample
# FastAtan2 reference at every chunking, on noise laced with zeros,
# subnormals, near-overflow values, ±Inf and NaN, and the branch-free
# WrapPhase must match its reference bit for bit.
PHASE_EQUIVALENCE_RUN='TestWrapPhaseMatchesReference|TestPhaseKernelMatchesScalar|TestPhaseDiffStreamerMatchesBatch'

# Medium-engine equivalence (DESIGN.md §12): the event-driven lazy
# synthesizer must reproduce the dense reference bit-for-bit, its
# capture compared by IEEE-754 bit pattern, and the range form of the
# ZigBee modulator it renders each chunk's stretch of a frame with must
# match the whole-waveform modulator bit for bit. Run over both
# packages: the engine gate lives in internal/link, the modulator
# oracle in internal/zigbee.
MEDIUM_EQUIVALENCE_RUN='TestMediumLinkEquivalence|TestModulateChipsRangeMatchesModulateChips'

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

# Packages for race-detector coverage. Audited against the two
# properties that make -race worth its ~10x slowdown: the package starts
# goroutines (grep for 'go func'/'go ident') or owns *rand.Rand /
# splitmix streams whose draw order a race would scramble.
# Goroutine spawners: stream (one worker goroutine per shard), vet (its
# GOMAXPROCS-bounded analyzer fan-out), link (only in metrics_test.go,
# which updates one registry from several goroutines) and
# cmd/symbeestream (the only cmd/ spawner: one producer goroutine per
# replayed stream, driven by its two-trace replay test).
# RNG owners: the root package, channel, ctc, link (the downlink's
# collision RNG, DownSpec.Collide), mac, medium, reliable, sim,
# splitmix and wifi. reliable starts no goroutine and, since the ARQ
# session keeps its own virtual time, holds no timer either; it stays
# in scope for its jitter, fault and collision streams. sim stays in
# scope as an RNG owner since sim.Run became one in-order loop. core
# stays listed for the decoder state machine that stream drives
# concurrently. dsp is not listed: it starts no goroutine, owns no RNG
# and holds no mutable package state (its tables are read-only), and
# stream's race run drives its kernels from concurrent workers. CI's
# race job runs `go test -race ./...`, which still covers dsp.
RACE_PACKAGES='. ./cmd/symbeestream/... ./internal/stream/... ./internal/core/... ./internal/reliable/... ./internal/channel/... ./internal/link/... ./internal/medium/... ./internal/ctc/... ./internal/sim/... ./internal/splitmix/... ./internal/mac/... ./internal/wifi/... ./internal/vet/...'
