package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func series(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	rt := metricByName["realtime_x"]  // higher is better, bound 0.25
	rss := metricByName["max_rss_mb"] // lower is better, bound 0.25
	parent := series(1.00, 0.01, 10)
	cases := []struct {
		name   string
		d      metricDef
		parent []float64
		change []float64
		fail   bool
		want   string
	}{
		{"same", rt, parent, series(1.00, 0.01, 10), false, "unchanged"},
		{"faster", rt, parent, series(1.20, 0.01, 10), false, "improved"},
		{"faster but more failures", rt, parent, series(1.20, 0.01, 10), true, "unresolved"},
		{"faster on too few pairs", rt, parent[:5], series(1.20, 0.01, 5), false, "unresolved"},
		{"much slower", rt, parent, series(0.70, 0.01, 10), false, "regressed"},
		{"slower within bound", rt, parent, series(0.90, 0.01, 10), false, "unchanged"},
		{"noisy parent", rt, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, series(1.5, 0, 10), false, "unresolved"},
		{"memory up", rss, series(100, 1, 10), series(130, 1, 10), false, "regressed"},
		{"memory up within bound", rss, series(100, 1, 10), series(115, 1, 10), false, "unchanged"},
		{"memory down", rss, series(100, 1, 10), series(80, 1, 10), false, "improved"},
	}
	for _, c := range cases {
		if got := judge(c.d, c.parent, c.change, c.fail).outcome; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A zero bound (deterministic metric) regresses on any loss.
	gp := metricByName["goodput_bps"]
	if got := judge(gp, []float64{100, 100}, []float64{99.9, 99.9}, false).outcome; got != "regressed" {
		t.Errorf("goodput: %s, want regressed", got)
	}
	if got := judge(gp, []float64{100, 100}, []float64{100, 100}, false).outcome; got != "unchanged" {
		t.Errorf("goodput: %s, want unchanged", got)
	}
}

func writeRecords(t *testing.T, path string, realtime []float64) {
	t.Helper()
	var buf bytes.Buffer
	for i, v := range realtime {
		rec := record{Record: recordTag, Workload: "busy_air", Seed: int64(i), Attempted: 10, Correct: true,
			Metrics: map[string]value{"realtime_x": {v, "x"}, "max_rss_mb": {100, "MB"}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteString("\n{\"correct\":true}\n") // result lines are skipped
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareReadsRecordFiles(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "p.jsonl"), filepath.Join(dir, "c.jsonl")
	writeRecords(t, parent, series(1.0, 0.01, 10))
	writeRecords(t, change, series(0.5, 0.01, 10))
	var out, errb bytes.Buffer
	if code := runCompare(parent, change, &out, &errb); code != exitWrong {
		t.Fatalf("exit %d on a halved realtime, want %d\n%s%s", code, exitWrong, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "max_rss_mb") {
		t.Errorf("compare output misses verdicts:\n%s", out.String())
	}
	writeRecords(t, change, series(1.0, 0.01, 10))
	out.Reset()
	if code := runCompare(parent, change, &out, &errb); code != exitOK {
		t.Fatalf("exit %d on identical runs\n%s", code, out.String())
	}
}

func TestRatioGuardsZero(t *testing.T) {
	if ratio(1, 0) != 0 || math.IsNaN(ratio(0, 0)) {
		t.Error("ratio must read 0 on a zero base")
	}
}
