package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func tableRows(k metricKind, withBound bool) []benchMetric {
	var out []benchMetric
	for _, d := range metricsOfKind(k) {
		m := benchMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if withBound {
			b := d.Bound
			m.Bound = &b
		}
		out = append(out, m)
	}
	return out
}

// BENCHMARK.json and the code's tables must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, tableRows(endToEnd, true)) {
		t.Errorf("end_to_end differs from the metric table:\n file %s\n code %s", jsonOf(bf.EndToEnd), jsonOf(tableRows(endToEnd, true)))
	}
	if !reflect.DeepEqual(bf.PerLayer, tableRows(layer, false)) {
		t.Errorf("per_layer differs from the metric table:\n file %s\n code %s", jsonOf(bf.PerLayer), jsonOf(tableRows(layer, false)))
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %q / %q, code %q / %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || len(bf.Command) < 2 || bf.Command[1] != "bench/run.sh" {
		t.Errorf("paths %v / command %v do not point at this directory", bf.Paths, bf.Command)
	}
	for _, m := range bf.EndToEnd {
		if *m.Bound > 0.25 {
			t.Errorf("%s: bound %v above 0.25", m.Name, *m.Bound)
		}
	}
}

func jsonOf(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// A short run of every workload, untraced and traced, prints a correct
// result line carrying exactly the metrics BENCHMARK.json lists, each
// with its unit, and a record line before it.
func TestSmokeRunPrintsBenchmarkMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for trace, want := range [][]benchMetric{bf.EndToEnd, bf.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.05", "--trace", []string{"0", "1"}[trace], "-short"}
			if code := run(args, &stdout, &stderr); code != exitOK {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if len(lines) != 2 {
				t.Fatalf("%s trace=%d: %d stdout lines, want record + result", w.name, trace, len(lines))
			}
			var rec record
			if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Record != recordTag || rec.Host.NProc == 0 {
				t.Errorf("%s trace=%d: bad record line (%v): %s", w.name, trace, err, lines[0])
			}
			var res resultLine
			dec := json.NewDecoder(strings.NewReader(lines[1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%d: result line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, v, m.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.name, m.Name, v.Value)
				}
			}
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "idle_air", "--trace", "2"},
		{"--workload", "idle_air", "--seconds", "0"},
		{"-compare", "only-one.jsonl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitError || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
