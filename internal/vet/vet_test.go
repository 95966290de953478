package vet

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadDir type-checks a standalone directory tree (no module context)
// under the given synthetic import path, for the golden-fixture tests,
// whose packages live under testdata and import only the standard
// library — or each other: subdirectories holding Go files become
// sibling packages at path+"/"+subdir, resolvable from the root
// fixture's imports (the layering, rngstream and reach fixtures model
// multi-package programs this way). The tree is the whole program, so
// the reach rule runs on it.
func loadDir(dir, path string) (*Program, error) {
	fset := token.NewFileSet()
	srcs := make(map[string]*pkgSource)
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		files, err := parseDir(fset, p)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		imp := path
		if rel != "." {
			imp = path + "/" + filepath.ToSlash(rel)
		}
		srcs[imp] = &pkgSource{path: imp, dir: p, files: files}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	all := make([]*pkgSource, 0, len(srcs))
	for _, s := range srcs {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].path < all[j].path })
	return newLoader(fset, srcs).program(all, true)
}

// golden runs one analyzer over a testdata fixture package and checks
// its diagnostics against the fixture's `// want "regexp"` comments:
// every diagnostic must match a want on its line, and every want must
// be matched by some diagnostic on its line.
func golden(t *testing.T, fixture string, az *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	prog, err := loadDir(dir, "fixture/"+fixture)
	if err != nil {
		t.Fatalf("loadDir(%s): %v", dir, err)
	}
	diags := Run(prog, []*Analyzer{az})

	wants := collectWants(t, prog)
	matched := make(map[string]bool) // "line#idx" of consumed wants

	for _, d := range diags {
		lineWants := wants[d.Line]
		ok := false
		for i, re := range lineWants {
			if re.MatchString(d.Message) {
				matched[fmt.Sprintf("%d#%d", d.Line, i)] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos(), d.Message)
		}
	}
	for line, res := range wants {
		for i, re := range res {
			if !matched[fmt.Sprintf("%d#%d", line, i)] {
				t.Errorf("%s:%d: want %q: no matching diagnostic", fixture, line, re)
			}
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d.String())
		}
	}
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// collectWants parses `// want` comments out of the fixture ASTs,
// keyed by line. Patterns are backquoted regexps: // want `re` `re2`.
func collectWants(t *testing.T, prog *Program) map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[int][]*regexp.Regexp)
	for _, u := range prog.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					line := prog.Fset.Position(c.Pos()).Line
					for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("bad want pattern %q: %v", m[1], err)
						}
						wants[line] = append(wants[line], re)
					}
					if len(wantRE.FindAllString(rest, -1)) == 0 {
						t.Fatalf("want comment with no backquoted pattern: %s", c.Text)
					}
				}
			}
		}
	}
	return wants
}

func TestGoldenHotpathAlloc(t *testing.T) { golden(t, "hotpath", AnalyzerHotpathAlloc()) }
func TestGoldenDeterminism(t *testing.T)  { golden(t, "determinism", AnalyzerDeterminism()) }
func TestGoldenErrwrap(t *testing.T)      { golden(t, "errwrap", AnalyzerErrwrap()) }
func TestGoldenFloatcmp(t *testing.T)     { golden(t, "floatcmp", AnalyzerFloatcmp()) }
func TestGoldenRngstream(t *testing.T)    { golden(t, "rngstream", AnalyzerRngstream()) }
func TestGoldenConfvalid(t *testing.T)    { golden(t, "confvalid", AnalyzerConfvalid()) }
func TestGoldenConcurrency(t *testing.T)  { golden(t, "concurrency", AnalyzerConcurrency()) }
func TestGoldenReach(t *testing.T)        { golden(t, "reach", AnalyzerReach()) }

// fixtureLayerManifest mirrors the shape of repoLayerManifest over the
// layering fixture's subpackages: a and f are leaves, b/c/e each may
// import a, and d is deliberately undeclared.
const fixtureLayerManifest = `
a:
f:
b: a
c: a
e: a
`

func TestGoldenLayering(t *testing.T) {
	golden(t, "layering", newLayeringAnalyzer("fixture/layering/", fixtureLayerManifest))
}

// TestFixturesHaveCoverage pins the ISSUE's floor: every fixture holds
// at least 3 positive (want) and 2 negative (ok:) cases.
func TestFixturesHaveCoverage(t *testing.T) {
	for _, fixture := range []string{
		"hotpath", "determinism", "errwrap", "floatcmp",
		"layering", "rngstream", "confvalid", "concurrency", "reach",
	} {
		prog, err := loadDir(filepath.Join("testdata", fixture), "fixture/"+fixture)
		if err != nil {
			t.Fatalf("loadDir(%s): %v", fixture, err)
		}
		positives, negatives := 0, 0
		for _, u := range prog.Units {
			for _, f := range u.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						if strings.HasPrefix(text, "want ") {
							positives++
						}
						if strings.HasPrefix(text, "ok") {
							negatives++
						}
					}
				}
			}
		}
		if positives < 3 || negatives < 2 {
			t.Errorf("%s: %d positive / %d negative cases, need >=3 / >=2", fixture, positives, negatives)
		}
	}
}

// TestAnalyzersRegistered pins the suite composition and ordering.
func TestAnalyzersRegistered(t *testing.T) {
	want := []string{
		"hotpath-alloc", "determinism", "errwrap", "floatcmp",
		"layering", "rngstream", "confvalid", "concurrency", "reach",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, az := range got {
		if az.Name != want[i] {
			t.Errorf("analyzer[%d] = %s, want %s", i, az.Name, want[i])
		}
		if az.Doc == "" || az.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", az.Name)
		}
	}
}

// TestLoadRepo loads the real module from this package's directory and
// checks that cross-package declarations resolve (the hotpath walk
// depends on it).
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load")
	}
	prog, err := Load(".", []string{"./internal/dsp", "./internal/core"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Units) != 2 {
		t.Fatalf("got %d units, want 2", len(prog.Units))
	}
	// A hot root annotated in dsp must have its declaration indexed.
	found := false
	for fn, decl := range prog.decls {
		if hasDirective(decl, "//symbee:hotpath") {
			found = true
			if d, u := prog.Decl(fn); d == nil || u == nil {
				t.Errorf("hot root %s has no indexed declaration", funcDisplayName(fn))
			}
		}
	}
	if !found {
		t.Error("no //symbee:hotpath roots found in dsp+core — annotations missing")
	}
}

// TestLoadExplicitTestdataDir pins the CLI contract for fixtures:
// wildcard patterns skip testdata trees, but naming a fixture
// directory outright loads it and produces its diagnostics.
func TestLoadExplicitTestdataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load")
	}
	prog, err := Load(".", []string{"./internal/vet/testdata/errwrap"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Units) != 1 {
		t.Fatalf("got %d units, want 1", len(prog.Units))
	}
	if diags := Run(prog, Analyzers()); len(diags) == 0 {
		t.Error("errwrap fixture produced no diagnostics through Load")
	}

	// The wildcard over the same subtree must keep skipping testdata.
	if _, err := Load(".", []string{"./internal/vet/testdata/..."}); err == nil {
		t.Error("wildcard into testdata matched packages; want no-packages error")
	}
}

// TestReachNeedsWholeModule pins that reach runs only on a load of
// exactly the module: the reach fixture's lib has unreached names, but
// a load of lib alone cannot see its importers, and a load that adds
// lib to ./... is not the module.
func TestReachNeedsWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load")
	}
	const lib = "./internal/vet/testdata/reach/internal/lib"
	for _, patterns := range [][]string{{lib}, {"./...", lib}} {
		prog, err := Load(".", patterns)
		if err != nil {
			t.Fatalf("Load(%v): %v", patterns, err)
		}
		if diags := Run(prog, []*Analyzer{AnalyzerReach()}); len(diags) != 0 {
			t.Errorf("Load(%v) reported %d reach findings, want 0: %v", patterns, len(diags), diags)
		}
	}
}
