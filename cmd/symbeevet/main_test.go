package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunModuleClean runs every rule over the whole module, as CI's
// symbeevet job does: the tree must hold all nine invariants.
func TestRunModuleClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("symbeevet ./... = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("clean run printed output:\n%s%s", stdout.String(), stderr.String())
	}
}

// TestRunFixtureReportsWants runs the errwrap rule over its fixture by
// directory: the status is 1 and stdout holds exactly the diagnostics
// the fixture's `// want` comments ask for, one per line.
func TestRunFixtureReportsWants(t *testing.T) {
	const fixture = "../../internal/vet/testdata/errwrap/errwrap.go"
	wants := fixtureWants(t, fixture)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rules", "errwrap", "./internal/vet/testdata/errwrap"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("status %d, want 1\n%s", code, stderr.String())
	}
	diag := regexp.MustCompile(`^(.*errwrap\.go):(\d+):\d+: \[errwrap\] (.*)$`)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(wants) {
		t.Fatalf("%d diagnostics, fixture wants %d:\n%s", len(lines), len(wants), stdout.String())
	}
	for _, l := range lines {
		m := diag.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("not an errwrap diagnostic on the fixture: %s", l)
			continue
		}
		n, _ := strconv.Atoi(m[2])
		if re, ok := wants[n]; !ok || !re.MatchString(m[3]) {
			t.Errorf("line %d: %q matches no want on that line", n, m[3])
		}
	}
	if !strings.Contains(stderr.String(), strconv.Itoa(len(wants))+" diagnostic(s)") {
		t.Errorf("stderr lacks the diagnostic count: %q", stderr.String())
	}
}

// TestRunUnknownRule pins the driver-error status.
func TestRunUnknownRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown rule "nosuch"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// fixtureWants maps each line of a fixture file that carries a
// `// want` comment to its backquoted pattern.
func fixtureWants(t *testing.T, path string) map[int]*regexp.Regexp {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(path))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := regexp.MustCompile("// want `([^`]+)`")
	wants := make(map[int]*regexp.Regexp)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		if m := want.FindStringSubmatch(sc.Text()); m != nil {
			wants[n] = regexp.MustCompile(m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("%s has no want comments", path)
	}
	return wants
}
