package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTxRxScanChain builds symbeetx, symbeerx and symbeescan and drives
// the round trip the three exist for, over files in t.TempDir(): a frame
// and a raw bit string written as IQ traces must decode to what was
// sent, symbeescan must find the frame on both its ZigBee and its WiFi
// side, and each error path must exit 1 with a one-line message.
func TestTxRxScanChain(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to build the commands: %v", err)
	}
	dir := t.TempDir()
	build := exec.Command(goTool, "build", "-o", dir+string(os.PathSeparator),
		"symbee/cmd/symbeetx", "symbee/cmd/symbeerx", "symbee/cmd/symbeescan")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// cmd runs one built command and returns its exit status and output.
	cmd := func(name string, args ...string) (code int, stdout, stderr string) {
		t.Helper()
		c := exec.Command(filepath.Join(dir, name), args...)
		var o, e bytes.Buffer
		c.Stdout, c.Stderr = &o, &e
		err := c.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			code = exit.ExitCode()
		case err != nil:
			t.Fatalf("%s: %v", name, err)
		}
		return code, o.String(), e.String()
	}
	ok := func(name string, args ...string) string {
		t.Helper()
		code, stdout, stderr := cmd(name, args...)
		if code != 0 {
			t.Fatalf("%s %v: status %d\n%s%s", name, args, code, stdout, stderr)
		}
		return stdout
	}

	frame := filepath.Join(dir, "hi.sbtr")
	ok("symbeetx", "-msg", "hi", "-seq", "3", "-trace", frame)
	if got := ok("symbeerx", "-in", frame); got != "frame seq=3 flags=0 data=\"hi\"\n" {
		t.Errorf("symbeerx printed %q", got)
	}
	scan := ok("symbeescan", "-in", frame)
	for _, want := range []string{
		"SymBee (ZigBee side): seq=3 flags=0 data=\"hi\"",
		"SymBee (WiFi side): preamble at phase index",
		"  frame: seq=3 flags=0 data=\"hi\"",
	} {
		if !strings.Contains(scan, want) {
			t.Errorf("symbeescan output lacks %q:\n%s", want, scan)
		}
	}

	bits := filepath.Join(dir, "bits.sbtr")
	ok("symbeetx", "-bits", "0101", "-trace", bits)
	if got := ok("symbeerx", "-in", bits, "-bits", "4"); got != "bits: 0101\n" {
		t.Errorf("symbeerx -bits 4 printed %q", got)
	}

	garbage := filepath.Join(dir, "garbage.sbtr")
	if err := os.WriteFile(garbage, []byte("NOPE0000000000000000000000"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"symbeerx", nil, "need -in trace file"},
		{"symbeerx", []string{"-in", garbage}, "bad magic"},
		{"symbeetx", []string{"-bits", "012"}, "bit string may only contain 0/1"},
	} {
		code, stdout, stderr := cmd(tc.name, tc.args...)
		if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %v: status %d, stdout %q, stderr %q; want 1 and one line naming %q",
				tc.name, tc.args, code, stdout, stderr, tc.want)
		}
	}
}
