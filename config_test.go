package symbee

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"symbee/internal/channel"
	"symbee/internal/core"
	"symbee/internal/ctc"
	"symbee/internal/mac"
	"symbee/internal/medium"
	"symbee/internal/reliable"
	"symbee/internal/stream"
)

// modulePath is the import path of the repository root.
const modulePath = "symbee"

func ptr[T any](v T) *T { return &v }

// nonFiniteBaselines maps every type of the module with a Validate()
// error method, as "<import path>.<Type>", to valid baselines: its
// Default* config, or for a ctc scheme each of its constructors.
// medium.Config and ctc.MediumConfig leave their population and run
// length unset on purpose, so their baselines fill the smallest valid
// values, and channel.Config carries a mobility track so its chained
// Validate is walked too. Each call builds fresh values.
func nonFiniteBaselines() map[string][]any {
	chanCfg := channel.DefaultConfig()
	chanCfg.Mobility = ptr(channel.DefaultMobilityConfig())
	med := medium.Defaults()
	med.Senders, med.FramesPerSender = 1, 1
	ctcMed := ctc.DefaultMedium()
	ctcMed.Duration = 1
	return map[string][]any{
		modulePath + ".ChannelConfig":                       {ptr(DefaultChannelConfig())},
		modulePath + "/internal/channel.Config":             {&chanCfg},
		modulePath + "/internal/channel.FaultConfig":        {ptr(channel.DefaultFaultConfig())},
		modulePath + "/internal/channel.InterferenceConfig": {ptr(channel.DefaultInterferenceConfig())},
		modulePath + "/internal/channel.MobilityConfig":     {ptr(channel.DefaultMobilityConfig())},
		modulePath + "/internal/core.Params":                {ptr(core.Params20()), ptr(core.Params40())},
		modulePath + "/internal/ctc.CMorse":                 {ctc.NewCMorse()},
		modulePath + "/internal/ctc.DCTC":                   {ctc.NewDCTC()},
		modulePath + "/internal/ctc.EMF":                    {ctc.NewEMF()},
		modulePath + "/internal/ctc.FreeBee":                {ctc.NewFreeBee(), ctc.NewAFreeBee()},
		modulePath + "/internal/ctc.MediumConfig":           {&ctcMed},
		modulePath + "/internal/mac.Config":                 {ptr(mac.DefaultConfig())},
		modulePath + "/internal/medium.Config":              {&med},
		modulePath + "/internal/reliable.Config":            {ptr(reliable.DefaultConfig())},
		modulePath + "/internal/reliable.SimConfig":         {ptr(reliable.DefaultSimConfig())},
		modulePath + "/internal/stream.Config":              {ptr(stream.DefaultConfig())},
	}
}

// nonFiniteAllowed lists the float64 fields, by the path
// TestEveryConfigRejectsNonFinite names them with, where a non-finite
// value is meaningful, each with the reason. No field gives one a
// meaning, so it is empty.
var nonFiniteAllowed = map[string]string{}

// TestEveryConfigRejectsNonFinite sets every float64 field of every
// baseline, recursing into nested structs and non-nil struct pointers,
// to NaN, +Inf and −Inf, and requires Validate to reject it. Every
// ordered comparison is false for NaN and +Inf passes an unbounded
// range check, so a range check alone passes both: a NaN channel
// parameter turned a whole capture NaN, and a NaN or +Inf
// ctc.MediumConfig.Duration made NewMedium panic. The table is complete
// by construction: the test parses the module's non-test files and
// fails when a type with a Validate() error method has no baseline.
func TestEveryConfigRejectsNonFinite(t *testing.T) {
	baselines := nonFiniteBaselines()
	declared := validatedTypes(t)
	for _, name := range declared {
		if _, ok := baselines[name]; !ok {
			t.Errorf("%s has a Validate() error method but no baseline in nonFiniteBaselines", name)
		}
	}
	names := make([]string, 0, len(baselines))
	for name := range baselines {
		names = append(names, name)
	}
	slices.Sort(names)
	visited := make(map[string]bool)
	for _, name := range names {
		if !slices.Contains(declared, name) {
			t.Errorf("nonFiniteBaselines names %s, which declares no Validate() error method", name)
			continue
		}
		for i, cfg := range baselines[name] {
			v := cfg.(interface{ Validate() error })
			if err := v.Validate(); err != nil {
				t.Errorf("%s baseline %d: Validate = %v", name, i, err)
				continue
			}
			eachFloat(reflect.ValueOf(cfg), name, func(path string, f reflect.Value) {
				visited[path] = true
				_, allowed := nonFiniteAllowed[path]
				orig := f.Float()
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					f.SetFloat(bad)
					if err := v.Validate(); err == nil && !allowed {
						t.Errorf("%s = %v (baseline %d): Validate accepted it", path, bad, i)
					}
				}
				f.SetFloat(orig)
			})
		}
	}
	for path := range nonFiniteAllowed {
		if !visited[path] {
			t.Errorf("nonFiniteAllowed names %s, which no baseline has", path)
		}
	}
}

// eachFloat calls visit on every float64 reachable from v through
// exported struct fields and non-nil struct pointers, named by its
// field path below path.
func eachFloat(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Pointer:
		if !v.IsNil() && v.Elem().Kind() == reflect.Struct {
			eachFloat(v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if field := v.Type().Field(i); field.IsExported() {
				eachFloat(v.Field(i), path+"."+field.Name, visit)
			}
		}
	}
}

// validatedTypes parses the module's non-test Go files, skipping
// testdata and nested modules, and returns every type with a
// Validate() error method as "<import path>.<Type>", sorted.
func validatedTypes(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := modulePath
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Validate" ||
				fn.Type.Params.NumFields() != 0 || fn.Type.Results.NumFields() != 1 {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); !ok || res.Name != "error" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				found = append(found, pkg+"."+id.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(found)
	return found
}
