// Command bench is the SymBee benchmark: it drives four workloads
// through the program's public entry points and prints their
// end-to-end metrics (untraced) or per-layer metrics (traced). Run it
// from the repository root through its build script:
//
//	bash bench/run.sh --workload busy_air --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload arq_soak --seed 1 --seconds 20 --trace 1 --trace-out spans.jsonl
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// Standard output carries two JSON lines: the run record (host
// envelope, counts and every metric) and, last, the result line
// {"correct", "attempted", "failed", "metrics"}. A human-readable
// summary goes to standard error. A run whose outputs are wrong prints
// its result with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitOK    = 0
	exitWrong = 1 // the run finished but an output was wrong, or -compare found a regression
	exitError = 2 // usage or runtime error: no result printed
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: idle_air, busy_air, arq_soak or crowd")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds give identical inputs")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "traced runs: write every span as a JSON line to this file")
	short := fs.Bool("short", false, "shrink every input (smoke runs)")
	compare := fs.Bool("compare", false, "compare two files of run records: -compare parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return exitError
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: need -workload (idle_air, busy_air, arq_soak, crowd), -seconds > 0 and -trace 0|1\n")
		return exitError
	}
	c := runConfig{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), sizes: fullSizes}
	if *short {
		c.sizes = shortSizes
	}
	fn, kind := w.run, endToEnd
	if *trace == 1 {
		fn, kind = w.trace, layer
	}
	res, err := fn(c)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return exitError
	}
	if *trace == 1 && *traceOut != "" {
		if err := writeTrace(*traceOut, res.tracers); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return exitError
		}
	}
	rec := newRecord(w.name, *seed, *seconds, *trace, *short, res)
	if err := emit(stdout, stderr, rec, kind); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return exitError
	}
	if !rec.Correct {
		return exitWrong
	}
	return exitOK
}

func writeTrace(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := writeJSONL(f, ts); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// value is one metric reading with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host is the envelope every record carries, so a number is never read
// without the machine and code that produced it.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostEnvelope() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// record is the full account of one run: one JSON line, the unit
// -compare reads back.
type record struct {
	Record    string             `json:"record"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Short     bool               `json:"short,omitempty"`
	Host      host               `json:"host"`
	Counts    map[string]float64 `json:"counts"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     []string           `json:"wrong,omitempty"`
	Metrics   map[string]value   `json:"metrics"`
}

// recordTag marks record lines, so a file of raw run output can be fed
// to -compare as it is.
const recordTag = "symbee-bench"

func newRecord(name string, seed int64, seconds float64, trace int, short bool, res *result) *record {
	rec := &record{
		Record: recordTag, Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Short: short,
		Host: hostEnvelope(), Counts: res.info, Correct: len(res.wrong) == 0,
		Attempted: res.attempted, Failed: res.failed, Wrong: res.wrong,
		Metrics: map[string]value{},
	}
	for n, v := range res.metrics {
		rec.Metrics[n] = value{v, metricByName[n].Unit}
	}
	return rec
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints the summary to stderr and the record and result line to
// stdout. The result line carries exactly the metrics of one kind.
func emit(stdout, stderr io.Writer, rec *record, kind metricKind) error {
	line := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for _, d := range metricsOfKind(kind) {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		line.Metrics[d.Name] = v
	}
	if rec.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	summarize(stderr, rec)
	for _, v := range []any{rec, line} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

func summarize(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d trace=%d: correct=%v attempted=%d failed=%d  [%s, nproc=%d, GOMAXPROCS=%d, commit %s]\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed,
		rec.Host.Go, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.Commit)
	for _, s := range rec.Wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	counts := make([]string, 0, len(rec.Counts))
	for n := range rec.Counts {
		counts = append(counts, n)
	}
	sort.Strings(counts)
	for _, n := range counts {
		fmt.Fprintf(w, "  (%s %.6g)\n", n, rec.Counts[n])
	}
}
