package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"symbee"
	"symbee/internal/cli"
	"symbee/internal/trace"
)

// TestRunPhaseSummaryNeedsFrontEnd scans a frame's IQ stamped with a
// 1 Msps rate. No scanner runs at that rate: the phase summary, like the
// WiFi scan, must report its front end unavailable instead of deriving
// a lag of its own and summarizing a stream no receiver would see.
func TestRunPhaseSummaryNeedsFrontEnd(t *testing.T) {
	l, err := symbee.NewLink(symbee.Params20(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := l.TransmitFrame(&symbee.Frame{Seq: 3, Data: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "1msps.sbtr")
	if err := (&trace.Trace{Kind: trace.KindIQ, SampleRate: 1e6, IQ: sig}).Save(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, &cli.Input{Path: path}, false); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"WiFi: front-end unavailable at this rate",
		"phases: front-end unavailable at this rate",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, " values, ") {
		t.Errorf("phase summary printed at a rate with no front end:\n%s", got)
	}
}
