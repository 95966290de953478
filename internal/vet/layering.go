package vet

import (
	"strconv"
	"strings"
)

// AnalyzerLayering enforces the declared import DAG of the internal
// packages. The architecture's layer boundaries — the shared-medium
// engine must not know about the link stack (medium ↛ link), the
// decoder core must not know about the worker pool (core ↛ stream),
// splitmix imports nothing — exist so subsystems can be grown and
// replaced independently; this rule turns them from review lore into a
// machine-checked manifest.
//
// The manifest below lists, for every internal package, the internal
// packages it is allowed to import. An import of an internal package
// that is not listed is a violation naming the offending edge and the
// manifest line; a package missing from the manifest entirely is a
// violation at its package clause (new packages must declare their
// layer when they are added), and so is a declared edge that no file
// of the package imports (the manifest must not outlive a removed
// dependency).
func AnalyzerLayering() *Analyzer {
	return newLayeringAnalyzer("symbee/internal/", repoLayerManifest)
}

// repoLayerManifest is the declared dependency DAG of internal/...:
// one line per package, "pkg: allowed allowed ...". Only edges between
// internal packages are constrained; stdlib and root imports are free.
// Keep the list alphabetized within its layers, leaves first.
const repoLayerManifest = `
coding:
dsp:
mac:
splitmix:
testutil:
trace:
vet:
zigbee:
wifi: dsp
ctc: splitmix
channel: dsp splitmix wifi
core: coding dsp wifi zigbee
cli: core trace
medium: channel core dsp splitmix zigbee
link: core dsp medium wifi
stream: core link
reliable: channel coding core ctc link splitmix zigbee
sim: channel coding core ctc dsp mac wifi zigbee
`

const layeringFix = "move the code across the boundary, invert the dependency through an " +
	"interface, or (for a deliberate architecture change) amend the manifest in internal/vet/layering.go"

const staleEdgeFix = "delete the edge from its manifest line in internal/vet/layering.go"

// manifestEntry is one parsed manifest line.
type manifestEntry struct {
	deps    []string // in manifest order
	allowed map[string]bool
	line    int    // 1-based line within the manifest literal
	text    string // the raw manifest line, for diagnostics
}

// newLayeringAnalyzer builds the layering rule over an arbitrary
// package-path prefix and manifest — the production prefix is
// "symbee/internal/"; fixtures substitute their own.
func newLayeringAnalyzer(prefix, manifest string) *Analyzer {
	entries := parseLayerManifest(manifest)
	return &Analyzer{
		Name: "layering",
		Doc:  "enforce the declared internal import DAG (manifest in internal/vet/layering.go)",
		Run: func(prog *Program, u *Unit) []Diagnostic {
			return runLayering(prog, u, prefix, entries)
		},
	}
}

// parseLayerManifest parses "pkg: dep dep" lines into entries keyed by
// the package's path-after-prefix, remembering each line number so
// diagnostics can point back into the manifest.
func parseLayerManifest(manifest string) map[string]manifestEntry {
	entries := make(map[string]manifestEntry)
	for i, raw := range strings.Split(manifest, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, deps, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		e := manifestEntry{deps: strings.Fields(deps), allowed: make(map[string]bool), line: i + 1, text: line}
		for _, dep := range e.deps {
			e.allowed[dep] = true
		}
		entries[strings.TrimSpace(name)] = e
	}
	return entries
}

func runLayering(prog *Program, u *Unit, prefix string, entries map[string]manifestEntry) []Diagnostic {
	short, ok := strings.CutPrefix(u.Path, prefix)
	if !ok || len(u.Files) == 0 {
		return nil // only packages under the prefix with sources are layered
	}
	entry, declared := entries[short]
	if !declared {
		return []Diagnostic{prog.diag("layering", u.Files[0].Name.Pos(), layeringFix,
			"package %s is not declared in the layering manifest: add a %q line", u.Path, short+": <deps>")}
	}
	var out []Diagnostic
	imported := make(map[string]bool)
	for _, f := range u.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			dep, ok := strings.CutPrefix(path, prefix)
			if !ok {
				continue
			}
			imported[dep] = true
			if entry.allowed[dep] {
				continue
			}
			out = append(out, prog.diag("layering", imp.Pos(), layeringFix,
				"%s imports %s: edge not in the layering manifest (line %d: %q)",
				u.Path, path, entry.line, entry.text))
		}
	}
	for _, dep := range entry.deps {
		if !imported[dep] {
			out = append(out, prog.diag("layering", u.Files[0].Name.Pos(), staleEdgeFix,
				"%s never imports %s%s: stale edge in the layering manifest (line %d: %q)",
				u.Path, prefix, dep, entry.line, entry.text))
		}
	}
	return out
}
