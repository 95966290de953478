package cli

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"symbee/internal/trace"
)

func TestParamsForRate(t *testing.T) {
	p20, err := ParamsForRate(20e6)
	if err != nil || p20.SampleRate != 20e6 {
		t.Fatalf("20 Msps: params %+v, err %v", p20, err)
	}
	p40, err := ParamsForRate(40e6)
	if err != nil || p40.SampleRate != 40e6 {
		t.Fatalf("40 Msps: params %+v, err %v", p40, err)
	}
	if _, err := ParamsForRate(10e6); err == nil {
		t.Fatal("10 Msps accepted, want error")
	}
}

// rawIQBytes encodes samples in the raw stdin format: interleaved
// little-endian complex64 pairs.
func rawIQBytes(samples []complex128) []byte {
	var buf bytes.Buffer
	for _, s := range samples {
		var w [8]byte
		binary.LittleEndian.PutUint32(w[:4], math.Float32bits(float32(real(s))))
		binary.LittleEndian.PutUint32(w[4:], math.Float32bits(float32(imag(s))))
		buf.Write(w[:])
	}
	return buf.Bytes()
}

func TestReadRawIQ(t *testing.T) {
	want := []complex128{1 + 2i, -0.5 - 0.25i, 0}
	got, err := ReadRawIQ(bytes.NewReader(rawIQBytes(want)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %v, want %v", i, got[i], want[i])
		}
	}
	_, err = ReadRawIQ(bytes.NewReader([]byte{1, 2, 3}))
	if err == nil {
		t.Fatal("truncated raw input accepted, want mid-sample error")
	}
	if !strings.Contains(err.Error(), "(3 bytes over)") {
		t.Errorf("truncation error %q does not name the 3 stray bytes", err)
	}
}

func TestInputLoadRaw(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	in := RegisterInput(fs, true)
	if err := fs.Parse([]string{"-raw", "-rate", "40e6"}); err != nil {
		t.Fatal(err)
	}
	in.stdin = bytes.NewReader(rawIQBytes([]complex128{3 + 4i}))
	tr, err := in.Load()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != trace.KindIQ || tr.SampleRate != 40e6 || len(tr.IQ) != 1 {
		t.Fatalf("raw load: kind=%v rate=%v n=%d", tr.Kind, tr.SampleRate, len(tr.IQ))
	}
}

func TestInputLoadTrace(t *testing.T) {
	src := &trace.Trace{Kind: trace.KindPhase, SampleRate: 20e6, Phases: []float64{0.5, -0.5}}
	path := filepath.Join(t.TempDir(), "in.sbtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	in := RegisterInput(fs, false)
	if err := fs.Parse([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
	tr, err := in.Load()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kind != trace.KindPhase || len(tr.Phases) != 2 {
		t.Fatalf("trace load: kind=%v n=%d", tr.Kind, len(tr.Phases))
	}
	if _, err := ParamsForTrace(tr); err != nil {
		t.Fatal(err)
	}

	// Stdin trace via "-".
	var buf bytes.Buffer
	if err := src.Write(&buf); err != nil {
		t.Fatal(err)
	}
	in.Path = "-"
	in.stdin = &buf
	if tr, err = in.Load(); err != nil || len(tr.Phases) != 2 {
		t.Fatalf("stdin trace load: n=%d err=%v", len(tr.Phases), err)
	}

	// Missing -in is an error, not an empty capture.
	in.Path = ""
	if _, err := in.Load(); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Fatalf("empty path: err=%v, want -in hint", err)
	}
}

func TestWriteJSON(t *testing.T) {
	if wrote, err := WriteJSON("", map[string]int{"a": 1}); err != nil || wrote {
		t.Fatalf("empty path: wrote=%v err=%v, want silent no-op", wrote, err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	wrote, err := WriteJSON(path, map[string]int{"a": 1})
	if err != nil || !wrote {
		t.Fatalf("wrote=%v err=%v", wrote, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		t.Error("artifact missing trailing newline")
	}
	var got map[string]int
	if err := json.Unmarshal(raw, &got); err != nil || got["a"] != 1 {
		t.Fatalf("round-trip: %v err=%v", got, err)
	}
}

func TestParseIntList(t *testing.T) {
	good := map[string][]int{
		"8":             {8},
		"8,64,256,1024": {8, 64, 256, 1024},
		" 8, 64 ":       {8, 64},
	}
	for in, want := range good {
		got, err := ParseIntList(in)
		if err != nil {
			t.Errorf("ParseIntList(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseIntList(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("ParseIntList(%q) = %v, want %v", in, got, want)
				break
			}
		}
	}
	for _, in := range []string{"", "8,,64", "a", "8,-1", "0"} {
		if got, err := ParseIntList(in); err == nil {
			t.Errorf("ParseIntList(%q) = %v, want error", in, got)
		}
	}
}
