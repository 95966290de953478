// Command symbeevet runs the project's static-analysis suite: nine
// analyzers that machine-enforce the repo's hot-path allocation,
// determinism, error-wrapping, float-comparison, import-layering,
// RNG-stream, config-contract, concurrency and reachability invariants
// (DESIGN.md §9).
//
// Usage:
//
//	go run ./cmd/symbeevet [-json] [-rules list] [packages]
//
// Patterns default to ./... . Exit status is 0 when clean, 1 when
// diagnostics were reported, 2 on a driver error (load or type-check
// failure, unknown rule).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"symbee/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one symbeevet invocation, printing the report to stdout
// and usage and driver errors to stderr, and returns the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("symbeevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of text")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: symbeevet [-json] [-rules list] [packages]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "rules:")
		for _, az := range vet.Analyzers() {
			fmt.Fprintf(stderr, "  %-14s %s\n", az.Name, az.Doc)
		}
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectRules(*rules)
	if err != nil {
		fmt.Fprintln(stderr, "symbeevet:", err)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "symbeevet:", err)
		return 2
	}
	loadStart := time.Now()
	prog, err := vet.Load(wd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "symbeevet:", err)
		return 2
	}
	load := time.Since(loadStart)

	analyzeStart := time.Now()
	diags := vet.Run(prog, analyzers)
	analyze := time.Since(analyzeStart)

	if *jsonOut {
		report := vet.NewReport(patterns, analyzers, prog, diags, load, analyze)
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "symbeevet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "symbeevet: %d diagnostic(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// selectRules resolves the -rules flag against the registered suite.
func selectRules(spec string) ([]*vet.Analyzer, error) {
	all := vet.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]*vet.Analyzer, len(all))
	for _, az := range all {
		byName[az.Name] = az
	}
	var out []*vet.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		az, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, az)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rules selected from %q", spec)
	}
	return out, nil
}
