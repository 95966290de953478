package vet

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestReportShape pins the JSON schema CI consumes: field names, the
// count/diagnostics duplication, and []-not-null for clean runs.
func TestReportShape(t *testing.T) {
	prog, err := loadDir(filepath.Join("testdata", "floatcmp"), "fixture/floatcmp")
	if err != nil {
		t.Fatalf("loadDir: %v", err)
	}
	analyzers := []*Analyzer{AnalyzerFloatcmp()}
	diags := Run(prog, analyzers)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}

	var buf bytes.Buffer
	if err := NewReport([]string{"./..."}, analyzers, prog, diags, 5*time.Millisecond, 2*time.Millisecond).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"patterns", "rules", "packages", "load_ms", "analyze_ms", "rule_counts", "diagnostics", "count"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report missing %q key", key)
		}
	}
	if got := decoded["count"].(float64); int(got) != len(diags) {
		t.Errorf("count = %v, want %d", got, len(diags))
	}
	if got := decoded["load_ms"].(float64); int(got) != 5 {
		t.Errorf("load_ms = %v, want 5", got)
	}
	if got := decoded["analyze_ms"].(float64); int(got) != 2 {
		t.Errorf("analyze_ms = %v, want 2", got)
	}
	counts := decoded["rule_counts"].(map[string]any)
	if got := counts["floatcmp"].(float64); int(got) != len(diags) {
		t.Errorf("rule_counts[floatcmp] = %v, want %d", got, len(diags))
	}
	if got := decoded["rules"].([]any); len(got) != 1 || got[0] != "floatcmp" {
		t.Errorf("rules = %v, want [floatcmp]", got)
	}
	first := decoded["diagnostics"].([]any)[0].(map[string]any)
	for _, key := range []string{"rule", "file", "line", "col", "message"} {
		if _, ok := first[key]; !ok {
			t.Errorf("diagnostic missing %q key", key)
		}
	}
	if first["rule"] != "floatcmp" {
		t.Errorf("diagnostic rule = %v, want floatcmp", first["rule"])
	}
	if line := first["line"].(float64); line < 1 {
		t.Errorf("diagnostic line = %v, want >= 1", line)
	}
}

// TestReportEmptyDiagnostics pins that a clean run serializes
// diagnostics as [] rather than null.
func TestReportEmptyDiagnostics(t *testing.T) {
	prog, err := loadDir(filepath.Join("testdata", "floatcmp"), "fixture/floatcmp")
	if err != nil {
		t.Fatalf("loadDir: %v", err)
	}
	var buf bytes.Buffer
	if err := NewReport([]string{"./..."}, Analyzers(), prog, nil, 0, 0).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"diagnostics": null`)) {
		t.Error("empty diagnostics serialized as null, want []")
	}
	var decoded struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Count       int          `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded.Count != 0 || len(decoded.Diagnostics) != 0 {
		t.Errorf("clean report has count=%d len=%d, want 0/0", decoded.Count, len(decoded.Diagnostics))
	}
}
