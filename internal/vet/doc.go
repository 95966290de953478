// Package vet is the project's static-analysis framework: a pure-stdlib
// (go/parser + go/types + go/importer) loader and diagnostic model
// behind cmd/symbeevet, plus the four project-specific analyzers that
// machine-enforce invariants earlier PRs established by convention:
//
//   - hotpath-alloc: functions annotated //symbee:hotpath — and
//     everything they statically call within the module — must not
//     contain allocation-inducing constructs. This turns the
//     AllocsPerRun==0 spot checks of the streaming ingest tests into a
//     whole-call-graph guarantee (DESIGN.md §9.1).
//   - determinism: no global math/rand top-level functions (seeded
//     *rand.Rand only), no time.Now/time.Since/time.Until in library
//     code (no file is exempt; a package's //symbee:ignore-annotated
//     wallNow seam is the one way to read the wall clock), and no range
//     over a map feeding an ordered output without an intervening sort
//     (§9.2).
//   - errwrap: fmt.Errorf with an error argument must use %w, no
//     err.Error() string comparisons, sentinel errors consumed only via
//     errors.Is/errors.As (§9.3).
//   - floatcmp: no ==/!= between floating-point operands (exact-zero
//     tests, self-comparisons and constant folds excepted) — use
//     dsp.ApproxEqual or an explicit tolerance (§9.4).
//
// Suppression: a diagnostic is silenced by a //symbee:ignore <rules>
// comment on the flagged line or the line directly above it, or a
// //symbee:ignore-file <rules> comment anywhere in the file. Rules are
// comma-separated; "all" matches every rule. Everything after "--" or
// "—" in the comment is a free-form rationale (conventionally
// mandatory: an ignore without a why does not survive review).
//
// This package is the one place in the repository where panic is an
// acceptable failure mode (scripts/check.sh greps it out of every other
// library package): the analyzers run offline in CI, never in a serving
// path.
package vet
