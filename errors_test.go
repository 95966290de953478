package symbee

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"symbee/internal/core"
	"symbee/internal/reliable"
)

// rootSentinels maps every exported Err* variable of the root package,
// as "<import path>.<Name>", to its value.
func rootSentinels() map[string]error {
	return map[string]error{
		modulePath + ".ErrNoPreamble":      ErrNoPreamble,
		modulePath + ".ErrCRC":             ErrCRC,
		modulePath + ".ErrBadLength":       ErrBadLength,
		modulePath + ".ErrBadVersion":      ErrBadVersion,
		modulePath + ".ErrBadBit":          ErrBadBit,
		modulePath + ".ErrWindowFull":      ErrWindowFull,
		modulePath + ".ErrTimeout":         ErrTimeout,
		modulePath + ".ErrFlushed":         ErrFlushed,
		modulePath + ".ErrBadCompensation": ErrBadCompensation,
		modulePath + ".ErrEmptyMessage":    ErrEmptyMessage,
		modulePath + ".ErrFragmentGap":     ErrFragmentGap,
	}
}

// wrappedSentinels maps every exported Err* variable of the packages
// whose errors the root surface passes on, as "<import path>.<Name>",
// to its value.
func wrappedSentinels() map[string]error {
	c, r := modulePath+"/internal/core.", modulePath+"/internal/reliable."
	return map[string]error{
		c + "ErrNoPreamble":      core.ErrNoPreamble,
		c + "ErrCRC":             core.ErrCRC,
		c + "ErrBadLength":       core.ErrBadLength,
		c + "ErrBadVersion":      core.ErrBadVersion,
		c + "ErrBadBit":          core.ErrBadBit,
		c + "ErrFlushed":         core.ErrFlushed,
		c + "ErrBadCompensation": core.ErrBadCompensation,
		c + "ErrDataTooLong":     core.ErrDataTooLong,
		c + "ErrTruncated":       core.ErrTruncated,
		c + "ErrEmptyMessage":    core.ErrEmptyMessage,
		c + "ErrFragmentGap":     core.ErrFragmentGap,
		r + "ErrWindowFull":      reliable.ErrWindowFull,
		r + "ErrTimeout":         reliable.ErrTimeout,
	}
}

// TestWrappedSentinelsMatchRoot makes errors.go's claim checkable: every
// exported sentinel of internal/core and internal/reliable, whose
// errors the root surface returns as they are, must match a root
// sentinel with errors.Is, so a caller can name each failure it can
// meet without importing an internal package. Both tables are complete
// by construction: the test parses the packages' non-test files and
// fails on a declared Err* variable the tables lack, or a table entry
// nothing declares.
func TestWrappedSentinelsMatchRoot(t *testing.T) {
	root := rootSentinels()
	checkSentinelTable(t, root, exportedErrVars(t, "."))
	wrapped := wrappedSentinels()
	checkSentinelTable(t, wrapped, append(exportedErrVars(t, "internal/core"), exportedErrVars(t, "internal/reliable")...))
	names := make([]string, 0, len(wrapped))
	for name := range wrapped {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		matched := false
		for _, target := range root {
			if errors.Is(wrapped[name], target) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s (%v) matches no root sentinel with errors.Is", name, wrapped[name])
		}
	}
}

// checkSentinelTable reports every declared name the table lacks and
// every table entry no package declares.
func checkSentinelTable(t *testing.T, table map[string]error, declared []string) {
	t.Helper()
	for _, name := range declared {
		if _, ok := table[name]; !ok {
			t.Errorf("%s is an exported sentinel the test's tables do not list", name)
		}
	}
	for name := range table {
		if !slices.Contains(declared, name) {
			t.Errorf("the test's tables list %s, which no package declares", name)
		}
	}
}

// exportedErrVars parses the non-test Go files of the module directory
// dir and returns its exported package-level variables named Err*, as
// "<import path>.<Name>", sorted.
func exportedErrVars(t *testing.T, dir string) []string {
	t.Helper()
	pkg := modulePath
	if dir != "." {
		pkg += "/" + dir
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var found []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.IsExported() && strings.HasPrefix(id.Name, "Err") {
						found = append(found, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	slices.Sort(found)
	return found
}
