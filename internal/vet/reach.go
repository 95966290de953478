package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerReach reports exported surface that no production code
// reaches: an exported package-level identifier, or an exported method
// of an exported named type, declared in a non-test file of a package
// under internal/ and used by no non-test file of the loaded module. A
// use is a types.Info Uses or Selections entry, generic instances
// folded to their origin; a use inside the declaring package counts.
// Such a name is dead, or a test helper living in production code.
//
// The module is what Load discovers, bench/ included: bench is a Go
// module of its own, but the loader type-checks it as symbee/bench, so
// a name only bench/ reaches is not reported.
//
// Exempt by construction: a method implementing a method of an
// interface type the module declares or names (it is called through the
// interface); String, Error and MarshalJSON, which the standard library
// calls by name; and a Default* function returning an exported config
// type, which confvalid requires. The rule reports nothing unless the
// load is exactly the module (./... or a whole fixture tree): a subset
// load cannot see the importers, and a testdata tree is not the module.
func AnalyzerReach() *Analyzer {
	return &Analyzer{
		Name: "reach",
		Doc:  "report exported names of internal packages that no non-test file of the module reaches",
		Run:  runReach,
	}
}

const reachFix = "delete it, move it into the tests that use it, or //symbee:ignore reach -- <who reaches it>"

// reachIndex is the module-wide use set. Load builds it once, because
// Run analyzes units in parallel.
type reachIndex struct {
	used map[types.Object]bool
	// ifaces holds the interface types with methods that the module
	// declares or names.
	ifaces map[*types.Interface]bool
}

func indexReach(units map[string]*Unit) *reachIndex {
	r := &reachIndex{used: make(map[types.Object]bool), ifaces: make(map[*types.Interface]bool)}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		r.used[obj] = true
	}
	seen := make(map[types.Object]bool)
	for _, u := range units {
		for _, obj := range u.Info.Uses {
			use(obj)
		}
		for _, sel := range u.Info.Selections {
			use(sel.Obj())
		}
		for _, idents := range []map[*ast.Ident]types.Object{u.Info.Defs, u.Info.Uses} {
			for _, obj := range idents {
				tn, ok := obj.(*types.TypeName)
				if !ok || seen[tn] {
					continue
				}
				seen[tn] = true
				it, ok := tn.Type().Underlying().(*types.Interface)
				// Only an instance of a generic interface can be implemented.
				if named := namedOf(tn.Type()); ok && it.NumMethods() > 0 && it.IsMethodSet() &&
					(named == nil || named.TypeParams().Len() == 0) {
					r.ifaces[it] = true
				}
			}
		}
	}
	return r
}

func runReach(prog *Program, u *Unit) []Diagnostic {
	r := prog.reach
	if r == nil || !strings.Contains("/"+u.Path+"/", "/internal/") {
		return nil
	}
	var out []Diagnostic
	report := func(id *ast.Ident, what string) {
		if obj := u.Info.Defs[id]; obj != nil && obj.Exported() && !r.used[obj] {
			out = append(out, prog.diag("reach", id.Pos(), reachFix,
				"exported %s is reached by no non-test file of the module", what))
		}
	}
	for _, f := range u.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type "+u.Pkg.Name()+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(id, d.Tok.String()+" "+u.Pkg.Name()+"."+id.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if fn, ok := u.Info.Defs[d.Name].(*types.Func); ok && !r.exempt(fn) {
					report(d.Name, "func "+funcDisplayName(fn))
				}
			}
		}
	}
	return out
}

// exempt reports whether the rule skips fn: a method of an unexported
// type, a method the standard library or an interface call reaches, or
// a config's Default* constructor.
func (r *reachIndex) exempt(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return strings.HasPrefix(fn.Name(), "Default") && sig.Results().Len() > 0 &&
			isConfigType(namedOf(sig.Results().At(0).Type()))
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || !named.Obj().Exported() {
		return true
	}
	switch fn.Name() {
	case "String", "Error", "MarshalJSON":
		return true
	}
	for it := range r.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}
