package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one rule violation at one source position.
type Diagnostic struct {
	// Rule is the analyzer name ("hotpath-alloc", "determinism", ...).
	Rule string `json:"rule"`
	// File is the path as recorded in the file set; Line and Col are
	// 1-based.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message states the violation.
	Message string `json:"message"`
	// Fix is a short hint on how to repair or legitimately suppress it.
	Fix string `json:"fix,omitempty"`
}

// Pos renders the go-tool-style file:line:col prefix.
func (d Diagnostic) Pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos(), d.Rule, d.Message)
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// Analyzer is one checkable rule. Run receives the whole program plus
// the unit under analysis and returns raw diagnostics; the framework
// applies //symbee:ignore suppression and ordering.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, u *Unit) []Diagnostic
}

// Analyzers returns the full rule suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerHotpathAlloc(),
		AnalyzerDeterminism(),
		AnalyzerErrwrap(),
		AnalyzerFloatcmp(),
		AnalyzerLayering(),
		AnalyzerRngstream(),
		AnalyzerConfvalid(),
		AnalyzerConcurrency(),
		AnalyzerReach(),
	}
}

// Run applies the analyzers to every unit of the program, filters
// suppressed findings, and returns the survivors sorted by position.
// Units are analyzed in parallel (bounded by GOMAXPROCS): analyzers
// only read the Program, so unit fan-out is safe, and the final sort
// makes the output order independent of scheduling.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	perUnit := make([][]Diagnostic, len(prog.Units))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, u := range prog.Units {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, u *Unit) {
			defer wg.Done()
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, az := range analyzers {
				for _, d := range az.Run(prog, u) {
					if !prog.suppressed(d) {
						diags = append(diags, d)
					}
				}
			}
			perUnit[i] = diags
		}(i, u)
	}
	wg.Wait()
	var out []Diagnostic
	for _, diags := range perUnit {
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// diag builds a Diagnostic anchored at pos.
func (p *Program) diag(rule string, pos token.Pos, fix, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		Rule:    rule,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	}
}

// ---- shared analyzer helpers ----

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error (and is not the
// untyped nil).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorType)
}

// calleeFunc resolves a call expression to its static callee: a
// package-level function or a concrete method. Calls through function
// values, builtins and interface methods with no body resolve to nil
// (or to an interface method the caller can detect via Decl returning
// nil).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeIn reports whether the call's static callee is the named
// package-level function: pkgPath is the import path, names the
// accepted function names.
func calleeIn(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // method, not a package-level function
	}
	if len(names) == 0 {
		return fn.Name(), true
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// funcDoc reports whether the declaration's doc comment group contains
// the given //symbee: directive line.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// funcDisplayName renders fn as pkg.Name or pkg.(Recv).Name for
// diagnostics.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
