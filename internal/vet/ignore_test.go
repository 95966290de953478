package vet

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestIgnoreSemantics pins the suppression rules: same-line and
// line-above comments silence the named rule, a wrong rule name does
// not, a comment two lines up is out of range, and ignore-file (with
// the "all" wildcard) silences the whole file.
func TestIgnoreSemantics(t *testing.T) {
	prog, err := loadDir(filepath.Join("testdata", "ignore"), "fixture/ignore")
	if err != nil {
		t.Fatalf("loadDir: %v", err)
	}
	diags := Run(prog, []*Analyzer{AnalyzerDeterminism()})

	// Map surviving diagnostics to the function that contains them, via
	// the fixture's layout: one violation per function.
	surviving := make(map[int]bool)
	for _, d := range diags {
		if !strings.HasSuffix(d.File, "ignore.go") {
			t.Errorf("diagnostic escaped the ignore-file directive: %s", d.String())
			continue
		}
		surviving[d.Line] = true
	}

	funcLine := fixtureFuncLines(t, prog, "ignore.go")
	cases := []struct {
		fn       string
		suppress bool
	}{
		{"SameLine", true},
		{"LineAbove", true},
		{"WrongRule", false},
		{"TooFar", false},
		{"Unsuppressed", false},
	}
	for _, c := range cases {
		start, end := funcLine[c.fn][0], funcLine[c.fn][1]
		fired := false
		for line := start; line <= end; line++ {
			if surviving[line] {
				fired = true
			}
		}
		if c.suppress && fired {
			t.Errorf("%s: diagnostic fired despite suppression", c.fn)
		}
		if !c.suppress && !fired {
			t.Errorf("%s: diagnostic was suppressed but should fire", c.fn)
		}
	}
}

// fixtureFuncLines returns the [start, end] line span of each function
// declared in the named file.
func fixtureFuncLines(t *testing.T, prog *Program, file string) map[string][2]int {
	t.Helper()
	spans := make(map[string][2]int)
	for _, u := range prog.Units {
		for _, f := range u.Files {
			pos := prog.Fset.Position(f.Pos())
			if !strings.HasSuffix(pos.Filename, file) {
				continue
			}
			for fn, decl := range prog.decls {
				p := prog.Fset.Position(decl.Pos())
				if !strings.HasSuffix(p.Filename, file) {
					continue
				}
				spans[fn.Name()] = [2]int{p.Line, prog.Fset.Position(decl.End()).Line}
			}
		}
	}
	if len(spans) == 0 {
		t.Fatalf("no functions found in %s", file)
	}
	return spans
}

// TestIgnoreMultiRule pins that one ignore comment with a
// comma-separated rule list silences several rules firing on the same
// line, while the unsuppressed control keeps both diagnostics.
func TestIgnoreMultiRule(t *testing.T) {
	prog, err := loadDir(filepath.Join("testdata", "ignoremulti"), "fixture/ignoremulti")
	if err != nil {
		t.Fatalf("loadDir: %v", err)
	}
	diags := Run(prog, []*Analyzer{AnalyzerRngstream(), AnalyzerConcurrency()})

	byRule := make(map[string]int)
	for _, d := range diags {
		byRule[d.Rule]++
	}
	if byRule["rngstream"] != 1 || byRule["concurrency"] != 1 || len(diags) != 2 {
		for _, d := range diags {
			t.Logf("got: %s", d.String())
		}
		t.Fatalf("surviving rule counts = %v (%d diags), want one rngstream + one concurrency from the control", byRule, len(diags))
	}
	if diags[0].Line != diags[1].Line {
		t.Errorf("control diagnostics on lines %d and %d, want the same line", diags[0].Line, diags[1].Line)
	}
	spans := fixtureFuncLines(t, prog, "ignoremulti.go")
	for _, d := range diags {
		if d.Line < spans["Control"][0] || d.Line > spans["Control"][1] {
			t.Errorf("diagnostic escaped the multi-rule suppression: %s", d.String())
		}
	}
}

// TestIgnoreParsing pins the comment grammar details: comma/space rule
// lists and the rationale separator.
func TestIgnoreParsing(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{" determinism -- because", []string{"determinism"}},
		{" determinism, floatcmp — dash rationale", []string{"determinism", "floatcmp"}},
		{" errwrap hotpath-alloc", []string{"errwrap", "hotpath-alloc"}},
		{" all", []string{"all"}},
		{" -- rationale only", nil},
	}
	for _, c := range cases {
		got := parseIgnoreRules(c.in)
		if len(got) != len(c.want) {
			t.Errorf("parseIgnoreRules(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseIgnoreRules(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}
