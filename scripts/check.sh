#!/bin/sh
# Repo-wide verification: formatting gate, build, vet, the project's own
# static-analysis suite (symbeevet), full test suite, vet and tests of the
# bench/ module, the panic gate for
# library code, then the race detector over every goroutine-spawning or
# RNG-owning package (the audit and the resulting list live in
# scripts/gates.sh), and the equivalence gates. CI runs this same script, so a green local run
# means a green check job. The -run gate lists and race package scope
# are shared with the CI workflows via scripts/gates.sh.
set -eux
cd "$(dirname "$0")/.."
. ./scripts/gates.sh
test -z "$(gofmt -l .)" || { gofmt -l .; echo "gofmt: files above need formatting"; exit 1; }
go build ./...
go vet ./...
go run ./cmd/symbeevet ./...
go test ./...
# bench/ is a module of its own: it imports link, core and reliable
# internals through a replace directive, and the root ./... patterns
# skip it. Vet and test it here so an internal API change cannot break
# the benchmark unnoticed.
(cd bench && go vet ./... && go test ./...)
# Race coverage over every goroutine-spawning or RNG-owning package
# (audit in scripts/gates.sh). The ARQ soak is bounded to two seeds
# here: one seeded 4 KiB transfer costs ~1 min under the race detector,
# and the full 100-seed acceptance sweep runs race-free in CI's
# dedicated soak job.
RELIABLE_SOAK_RUNS=2 go test -race -timeout 15m $RACE_PACKAGES
# Medium-engine equivalence under the race detector: the event-driven
# lazy synthesizer must reproduce the dense reference bit-for-bit, and
# the range modulator it renders with must match the whole-waveform
# modulator (DESIGN.md §12).
go test -race ./internal/link/ ./internal/zigbee/ -run "$MEDIUM_EQUIVALENCE_RUN" -count=1
# Link-stack equivalence: the committed golden fixtures must decode to
# their recorded frames through Decoder.DecodeFrame, which runs the
# bounded frame machine the stacks run, and through every Stack
# configuration at every ingest chunk size, and the warm ingest path
# must stay allocation-free (DESIGN.md §11).
go test ./internal/link/ -run "$LINK_EQUIVALENCE_RUN" -count=1
# Batched preamble-scan equivalence: the chunked batch scan, in every
# scanner state, and the batch CapturePreamble must match the
# per-sample reference scanner (test code in
# internal/core/scanref_test.go) bit for bit, and the warm hunt must
# allocate nothing (DESIGN.md §13).
go test ./internal/core/ -run "$HUNT_EQUIVALENCE_RUN" -count=1
# Phase kernel equivalence: the shared block kernel behind the batch
# and streaming phase paths, and the branch-free WrapPhase, must match
# their per-sample references bit for bit (DESIGN.md §7).
go test ./internal/dsp/ -run "$PHASE_EQUIVALENCE_RUN" -count=1
# Duplex downlink equivalence: the ack downlink must match the
# retired monolithic reverse channel bit for bit over 100 seeds, and
# the committed downlink golden traces must replay byte-identically at
# every polling cadence (DESIGN.md §15).
go test ./internal/link/ ./internal/reliable/ -run "$DUPLEX_EQUIVALENCE_RUN" -count=1
# Library code reports errors, it does not panic: the only panic( calls
# allowed outside tests are the vet suite's own fixtures/doc strings.
panics="$(grep -rn 'panic(' --include='*.go' cmd internal examples *.go | grep -v _test.go | grep -v '^internal/vet/' || true)"
test -z "$panics" || { echo "$panics"; echo "panic( found in library code (use error returns; see DESIGN.md §9)"; exit 1; }
