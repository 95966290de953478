// Package testutil holds small helpers shared by the repo's tests; it
// is imported only from _test.go files.
package testutil

//symbee:ignore-file reach -- only _test.go files import testutil, so no production file reaches this one

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckGoroutineLeaks snapshots the goroutines alive now and returns a
// function to defer at the top of a test: it fails the test if the body
// left extra goroutines behind. Shutdown paths are given a grace period
// (the check retries with short sleeps before declaring a leak), so
// workers that are mid-teardown when the body returns do not flap.
//
//	defer testutil.CheckGoroutineLeaks(t)()
func CheckGoroutineLeaks(t testing.TB) func() {
	t.Helper()
	before := goroutineCounts()
	return func() {
		t.Helper()
		var leaked []string
		for attempt := 0; attempt < 50; attempt++ {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d goroutine(s) survived the test:\n  %s",
			len(leaked), strings.Join(leaked, "\n  "))
	}
}

// leakedSince lists the creation sites with more live goroutines now
// than in the baseline.
func leakedSince(before map[string]int) []string {
	var leaked []string
	for site, n := range goroutineCounts() {
		if n > before[site] {
			leaked = append(leaked, site)
		}
	}
	sort.Strings(leaked)
	return leaked
}

// goroutineCounts returns the live goroutines grouped by creation site
// (the "created by" frame, or the top frame for main-like goroutines).
// Runtime and testing internals are excluded: they come and go on their
// own schedule and are never a leak the test under check caused.
func goroutineCounts() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	counts := make(map[string]int)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		site := creationSite(g)
		if site == "" || isHarness(site) {
			continue
		}
		counts[site]++
	}
	return counts
}

// creationSite extracts the identity of one goroutine dump block.
func creationSite(g string) string {
	lines := strings.Split(strings.TrimSpace(g), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if rest, ok := strings.CutPrefix(lines[i], "created by "); ok {
			if at, _, found := strings.Cut(rest, " in goroutine"); found {
				return at
			}
			return rest
		}
	}
	// No "created by" frame: main goroutine or a runtime-spawned one.
	if len(lines) > 1 {
		fn, _, _ := strings.Cut(lines[1], "(")
		return strings.TrimSpace(fn)
	}
	return ""
}

// isHarness reports whether the site belongs to the go runtime or the
// testing framework rather than code under test.
func isHarness(site string) bool {
	return strings.HasPrefix(site, "runtime.") ||
		strings.HasPrefix(site, "testing.") ||
		strings.HasPrefix(site, "os/signal.")
}
