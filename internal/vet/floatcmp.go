package vet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AnalyzerFloatcmp flags exact floating-point (or complex) equality in
// the DSP and channel code: after resampling, FFT round trips and phase
// unwrapping, exact equality is a latent flake. Three shapes are
// covered:
//
//   - == and != between float operands;
//   - switch statements dispatching on a float tag: every case
//     comparison is an exact ==;
//   - map types keyed by a float or complex type: a NaN key can never
//     be retrieved, and rounding splits logically-equal keys.
//
// Exemptions, matching the kernel's documented IEEE idioms:
//
//   - one operand (or the case value) is an exact constant zero
//     (`mag2 == 0`, `case 0:`): the bit-exact zero test that guards
//     division and sign seams;
//   - syntactic self-comparison (`x != x`): the NaN probe;
//   - both operands constant: folded at compile time.
func AnalyzerFloatcmp() *Analyzer {
	return &Analyzer{
		Name: "floatcmp",
		Doc:  "forbid exact ==/!= between float operands (NaN/rounding hazards)",
		Run:  runFloatcmp,
	}
}

const floatFix = "use an explicit |a-b| <= tol with a documented tolerance"

func runFloatcmp(prog *Program, u *Unit) []Diagnostic {
	var out []Diagnostic
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if d := checkFloatBinary(prog, u, n); d != nil {
					out = append(out, *d)
				}
			case *ast.SwitchStmt:
				out = append(out, checkFloatSwitch(prog, u, n)...)
			case *ast.MapType:
				if kt := u.Info.TypeOf(n.Key); kt != nil {
					if b, ok := kt.Underlying().(*types.Basic); ok && b.Info()&(types.IsFloat|types.IsComplex) != 0 {
						out = append(out, prog.diag("floatcmp", n.Pos(), floatFix,
							"map keyed by floating-point type %s: NaN keys are unretrievable and rounding splits equal keys", kt))
					}
				}
			}
			return true
		})
	}
	return out
}

// checkFloatBinary applies the ==/!= rule to one comparison.
func checkFloatBinary(prog *Program, u *Unit, cmp *ast.BinaryExpr) *Diagnostic {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return nil
	}
	if !isFloatOperand(u, cmp.X) || !isFloatOperand(u, cmp.Y) {
		return nil
	}
	xc, yc := constOf(u, cmp.X), constOf(u, cmp.Y)
	if xc != nil && yc != nil {
		return nil // both constant: folded, exact by definition
	}
	if isExactZero(xc) || isExactZero(yc) {
		return nil // IEEE zero test guarding a division or sign seam
	}
	if types.ExprString(ast.Unparen(cmp.X)) == types.ExprString(ast.Unparen(cmp.Y)) {
		return nil // x != x: the NaN probe
	}
	d := prog.diag("floatcmp", cmp.Pos(), floatFix,
		"exact %s between floating-point operands: rounding makes this comparison unstable", cmp.Op)
	return &d
}

// checkFloatSwitch flags each case value of a float-tagged switch —
// every one is an exact == in disguise. Constant-zero case values keep
// the zero-test exemption.
func checkFloatSwitch(prog *Program, u *Unit, sw *ast.SwitchStmt) []Diagnostic {
	if sw.Tag == nil || !isFloatOperand(u, sw.Tag) {
		return nil
	}
	var out []Diagnostic
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if isExactZero(constOf(u, e)) {
				continue
			}
			out = append(out, prog.diag("floatcmp", e.Pos(), floatFix,
				"case on a floating-point tag is an exact ==: rounding makes this dispatch unstable"))
		}
	}
	return out
}

// isFloatOperand reports whether e has floating-point or complex type.
func isFloatOperand(u *Unit, e ast.Expr) bool {
	t := u.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// constOf returns the constant value of e, or nil.
func constOf(u *Unit, e ast.Expr) constant.Value {
	if tv, ok := u.Info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// isExactZero reports whether v is the constant zero (real and, for
// complex, imaginary parts both zero).
func isExactZero(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	case constant.Complex:
		return constant.Sign(constant.Real(v)) == 0 && constant.Sign(constant.Imag(v)) == 0
	}
	return false
}
