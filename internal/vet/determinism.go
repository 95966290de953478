package vet

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// AnalyzerDeterminism enforces the seeded-reproducibility invariant
// (DESIGN.md §5: every simulation and fault-injection result must be
// replayable from a seed). It flags:
//
//   - calls to the global (process-seeded) math/rand and math/rand/v2
//     top-level functions — randomness must flow from an injected,
//     seeded *rand.Rand;
//   - calls to or references of time.Now / time.Since / time.Until
//     anywhere except internal/reliable/clock.go, the one blessed
//     wall-clock seam (retransmission timers go through the Clock
//     interface so tests drive virtual time);
//   - ranging over a map while feeding an ordered output (printing, or
//     appending to a slice that is never sorted afterwards in the same
//     function), or while drawing from a *rand.Rand — map iteration
//     order is randomized per run, and the draws would follow it. A
//     draw counts when the range body makes it directly or reaches it
//     through module functions and function literals bound to local
//     variables, followed transitively.
//
// Package main is exempt from the clock rule: CLI entry points
// legitimately report wall-clock progress.
func AnalyzerDeterminism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid ambient randomness, unblessed wall clocks, and order-leaking map ranges",
		Run:  runDeterminism,
	}
}

// clockAllowFile is the one file allowed to touch the wall clock.
const clockAllowFile = "internal/reliable/clock.go"

const randFix = "thread a seeded *rand.Rand (or rand.Source) through the call path"
const clockFix = "inject a reliable.Clock, or route through the package's single " +
	"//symbee:ignore-annotated wallNow seam"
const mapOrderFix = "collect keys, sort, then iterate; or sort the accumulated slice before use"

func runDeterminism(prog *Program, u *Unit) []Diagnostic {
	var out []Diagnostic
	isMain := u.Pkg != nil && u.Pkg.Name() == "main"
	for _, f := range u.Files {
		fname := prog.Fset.Position(f.Pos()).Filename
		clockAllowed := isMain || strings.HasSuffix(filepath.ToSlash(fname), clockAllowFile)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Constructors (New, NewSource, ...) build seeded local
				// generators — the blessed pattern; only the top-level
				// functions drive the process-global state.
				for _, pkg := range []string{"math/rand", "math/rand/v2"} {
					if name, ok := calleeIn(u.Info, n, pkg); ok && !strings.HasPrefix(name, "New") {
						out = append(out, prog.diag("determinism", n.Pos(), randFix,
							"%s.%s uses the process-global generator: results are not seed-reproducible", pkg, name))
					}
				}
			case *ast.SelectorExpr:
				// References, not just calls: `var now = time.Now`
				// smuggles the wall clock past a call-only check.
				if clockAllowed {
					return true
				}
				if fn, ok := u.Info.Uses[n.Sel].(*types.Func); ok {
					if fn.Pkg() != nil && fn.Pkg().Path() == "time" {
						switch fn.Name() {
						case "Now", "Since", "Until":
							out = append(out, prog.diag("determinism", n.Pos(), clockFix,
								"time.%s outside %s: wall-clock reads make runs irreproducible", fn.Name(), clockAllowFile))
						}
					}
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, checkMapRangeOrder(prog, u, n)...)
				}
			}
			return true
		})
	}
	return out
}

// checkMapRangeOrder flags range-over-map statements inside fn whose
// body leaks iteration order into an ordered output.
func checkMapRangeOrder(prog *Program, u *Unit, fn *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := u.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		if target, kind := mapRangeLeak(u, fn, rng); kind != "" {
			msg := "map iteration order leaks into output: " + kind
			if target != "" {
				msg += " " + target
			}
			out = append(out, prog.diag("determinism", rng.Pos(), mapOrderFix, msg))
		} else if draw := randDraw(prog, u, fn, rng.Body); draw != "" {
			out = append(out, prog.diag("determinism", rng.Pos(), mapOrderFix,
				"map iteration order leaks into the random stream: %s reached from the range body", draw))
		}
		return true
	})
	return out
}

// randDraw returns the first *rand.Rand method that body calls,
// directly or through the module functions and the function literals
// bound to local variables that it calls, followed transitively; ""
// when it reaches none. encl is the function declaring body.
func randDraw(prog *Program, u *Unit, encl *ast.FuncDecl, body ast.Node) string {
	seen := make(map[ast.Node]bool)
	var walk func(u *Unit, encl *ast.FuncDecl, body ast.Node) string
	walk = func(u *Unit, encl *ast.FuncDecl, body ast.Node) (draw string) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || draw != "" {
				return draw == ""
			}
			if fn := calleeFunc(u.Info, call); fn != nil {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isRandPtr(recv.Type()) {
					draw = "(*rand.Rand)." + fn.Name()
				} else if decl, du := prog.Decl(fn); decl != nil && decl.Body != nil && !seen[decl] {
					seen[decl] = true
					draw = walk(du, decl, decl.Body)
				}
				return draw == ""
			}
			for _, lit := range boundFuncLits(u.Info, encl, call.Fun) {
				if draw == "" && !seen[lit] {
					seen[lit] = true
					draw = walk(u, encl, lit.Body)
				}
			}
			return draw == ""
		})
		return draw
	}
	return walk(u, encl, body)
}

// boundFuncLits returns the function literals that encl assigns to the
// local variable fun names; nil when fun is not a variable.
func boundFuncLits(info *types.Info, encl *ast.FuncDecl, fun ast.Expr) []*ast.FuncLit {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	var lits []*ast.FuncLit
	ast.Inspect(encl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				lit, isLit := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
				if name, ok := lhs.(*ast.Ident); ok && isLit && info.ObjectOf(name) == v {
					lits = append(lits, lit)
				}
			}
		}
		return true
	})
	return lits
}

// mapRangeLeak inspects a range-over-map body for order-dependent
// emission: direct printing, or appending to a slice that the enclosing
// function never sorts afterwards.
func mapRangeLeak(u *Unit, fn *ast.FuncDecl, rng *ast.RangeStmt) (target, kind string) {
	var appended []ast.Expr
	found := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := calleeIn(u.Info, call, "fmt", "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf"); ok {
			found = "fmt." + name + " inside the range body"
			return false
		}
		if isBuiltin(u.Info, call, "append") && len(call.Args) > 0 {
			if first := ast.Unparen(call.Args[0]); exprIdentityKnown(u, first) {
				appended = append(appended, first)
			}
		}
		return true
	})
	if found != "" {
		return "", found
	}
	for _, tgt := range appended {
		if !sortedAfter(u, fn, rng, tgt) {
			return types.ExprString(tgt), "append to"
		}
	}
	return "", ""
}

// exprIdentityKnown reports whether the expression is simple enough to
// track by its printed form (identifier or selector chain).
func exprIdentityKnown(u *Unit, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return exprIdentityKnown(u, e.X)
	default:
		return false
	}
}

// sortedAfter reports whether, somewhere in fn after the range
// statement ends, a sort call (sort.* or slices.Sort*) receives the
// target expression.
func sortedAfter(u *Unit, fn *ast.FuncDecl, rng *ast.RangeStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fnObj := calleeFunc(u.Info, call)
		if fnObj == nil || fnObj.Pkg() == nil {
			return true
		}
		pkg := fnObj.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			a := ast.Unparen(arg)
			if types.ExprString(a) == want {
				sorted = true
				return false
			}
			// sort.Slice(x, func...) and wrappers like sort.Sort(byX(x)).
			if inner, ok := a.(*ast.CallExpr); ok {
				for _, ia := range inner.Args {
					if types.ExprString(ast.Unparen(ia)) == want {
						sorted = true
						return false
					}
				}
			}
		}
		return true
	})
	return sorted
}
