package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked package of the analyzed module.
type Unit struct {
	// Path is the import path ("symbee/internal/dsp").
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// Program is a load of the module: every package reachable from the
// requested patterns, type-checked against a shared file set so object
// identities line up across packages (the hotpath analyzer walks the
// cross-package call graph through Decls).
type Program struct {
	Fset *token.FileSet
	// Units are the analyzed packages in deterministic (path) order.
	Units []*Unit
	// ignores indexes //symbee:ignore comments by file and line.
	ignores map[string]*fileIgnores

	decls    map[*types.Func]*ast.FuncDecl
	declUnit map[*types.Func]*Unit
	// reach is nil unless the load covered every package of the module.
	reach *reachIndex
}

// Decl returns the syntax of fn and the unit declaring it, when fn is
// declared in the loaded module (nil otherwise — stdlib, interface
// methods, function values).
func (p *Program) Decl(fn *types.Func) (*ast.FuncDecl, *Unit) {
	return p.decls[fn], p.declUnit[fn]
}

// pkgSource is a parsed-but-not-yet-checked package directory.
type pkgSource struct {
	path  string
	dir   string
	files []*ast.File
}

// loader type-checks module packages on demand: Import is handed to
// go/types as the importer, so dependency order falls out of the
// recursion (with memoization and cycle detection). Imports outside the
// module fall through to the toolchain's export data, then to the
// from-source importer.
type loader struct {
	fset     *token.FileSet
	srcs     map[string]*pkgSource
	units    map[string]*Unit
	checking map[string]bool
	gc       types.Importer
	source   types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if s, ok := l.srcs[path]; ok {
		u, err := l.check(s)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	pkg, err := l.gc.Import(path)
	if err == nil {
		return pkg, nil
	}
	return l.source.Import(path)
}

func (l *loader) check(s *pkgSource) (*Unit, error) {
	if u, ok := l.units[s.path]; ok {
		return u, nil
	}
	if l.checking[s.path] {
		return nil, fmt.Errorf("vet: import cycle through %s", s.path)
	}
	l.checking[s.path] = true
	defer delete(l.checking, s.path)

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(s.path, l.fset, s.files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", s.path, err)
	}
	u := &Unit{Path: s.path, Dir: s.dir, Files: s.files, Pkg: pkg, Info: info}
	l.units[s.path] = u
	return u, nil
}

// Load parses and type-checks the module rooted at or above dir,
// returning the packages matched by patterns ("./...", "./pkg/...",
// "./pkg", "."). Test files are not loaded: the enforced invariants are
// library-code invariants, and tests routinely (and legitimately) use
// wall clocks, global rand and exact comparisons.
func Load(dir string, patterns []string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	srcs, err := discover(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	// Wildcard patterns never reach into testdata (discover skips those
	// trees, mirroring the go tool), but an explicitly named directory
	// should still load — that is how the golden fixtures are run from
	// the command line. Such a load is not the module.
	modPkgs := len(srcs)
	if err := addExplicitDirs(fset, root, modPath, patterns, srcs); err != nil {
		return nil, err
	}
	matched := make([]*pkgSource, 0, len(srcs))
	for _, s := range srcs {
		if matchesAny(patterns, root, s) {
			matched = append(matched, s)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("vet: no packages match %v", patterns)
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].path < matched[j].path })
	return newLoader(fset, srcs).program(matched, len(matched) == modPkgs && len(srcs) == modPkgs)
}

func newLoader(fset *token.FileSet, srcs map[string]*pkgSource) *loader {
	return &loader{
		fset:     fset,
		srcs:     srcs,
		units:    make(map[string]*Unit),
		checking: make(map[string]bool),
		gc:       importer.Default(),
		source:   importer.ForCompiler(fset, "source", nil),
	}
}

// program type-checks the matched sources, in the order given, into
// the Program's Units. whole marks a load of every package of the
// module, the only kind on which the reach rule sees every importer.
func (l *loader) program(matched []*pkgSource, whole bool) (*Program, error) {
	prog := &Program{
		Fset:     l.fset,
		ignores:  make(map[string]*fileIgnores),
		decls:    make(map[*types.Func]*ast.FuncDecl),
		declUnit: make(map[*types.Func]*Unit),
	}
	for _, s := range matched {
		u, err := l.check(s)
		if err != nil {
			return nil, err
		}
		prog.Units = append(prog.Units, u)
	}
	// Index declarations and suppression comments across every loaded
	// unit (matched or dependency): the hotpath walk crosses package
	// boundaries, so callee bodies must be reachable even when their
	// package was pulled in only as an import.
	for _, u := range l.units {
		prog.indexUnit(u)
	}
	if whole {
		prog.reach = indexReach(l.units)
	}
	return prog, nil
}

func (p *Program) indexUnit(u *Unit) {
	for _, f := range u.Files {
		p.indexIgnores(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				p.decls[fn] = fd
				p.declUnit[fn] = u
			}
		}
	}
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("vet: no go.mod at or above %s", abs)
		}
	}
}

// discover parses every package directory of the module. Hidden
// directories, testdata and vendor trees are skipped, as are test
// files.
func discover(fset *token.FileSet, root, modPath string) (map[string]*pkgSource, error) {
	srcs := make(map[string]*pkgSource)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "node_modules") {
			return filepath.SkipDir
		}
		files, err := parseDir(fset, path)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		srcs[imp] = &pkgSource{path: imp, dir: path, files: files}
		return nil
	})
	return srcs, err
}

// addExplicitDirs parses package directories that were named directly
// by a wildcard-free pattern but skipped by discover (testdata trees).
// Missing directories are left for matchesAny to report as unmatched.
func addExplicitDirs(fset *token.FileSet, root, modPath string, patterns []string, srcs map[string]*pkgSource) error {
	for _, pat := range patterns {
		p := strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if p == "" || p == "." || strings.Contains(p, "...") {
			continue
		}
		imp := modPath + "/" + p
		if _, ok := srcs[imp]; ok {
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(p))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			continue
		}
		files, err := parseDir(fset, dir)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			srcs[imp] = &pkgSource{path: imp, dir: dir, files: files}
		}
	}
	return nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// matchesAny reports whether the package source matches one of the
// go-style path patterns, resolved relative to the module root.
func matchesAny(patterns []string, root string, s *pkgSource) bool {
	rel, err := filepath.Rel(root, s.dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if pat == "." && rel == "." {
			return true
		}
		if rel == pat {
			return true
		}
	}
	return false
}
