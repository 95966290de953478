package main

import (
	"strings"
	"testing"

	"symbee/internal/sim"
)

// TestRealMainRejectsNegativePackets: a negative -packets fails before
// any experiment runs. Left to the experiments, nonintrusive would
// print a table of -0 decode rates.
func TestRealMainRejectsNegativePackets(t *testing.T) {
	for _, id := range []string{"fig11", "nonintrusive"} {
		err := realMain(false, id, false, sim.Options{Seed: 1, Packets: -1}, false)
		if err == nil || !strings.Contains(err.Error(), "-packets") {
			t.Errorf("%s with -packets -1: err = %v, want the -packets error", id, err)
		}
	}
}

// TestBenchModesRejectNonPositiveCounts: each bench mode fails on a
// count flag that is not positive before doing any work. Left to run,
// -reliable-runs 0 passed the soak gate with no soak at all,
// -kernel-samples -1 panicked, -kernel-samples 0 measured NaN
// speedups, -reliable-msg 0 ran the whole soak on empty messages,
// -stream-chunk -5 measured with another chunk size than it printed and
// -stream-samples 0 measured nothing.
func TestBenchModesRejectNonPositiveCounts(t *testing.T) {
	for _, tc := range []struct {
		flag string
		run  func() error
	}{
		{"-reliable-runs", func() error { return runReliableBench(1, 0, 1, "") }},
		{"-reliable-msg", func() error { return runReliableBench(1, 1, 0, "") }},
		{"-kernel-samples", func() error { return runKernelBench(1, -1, "", "") }},
		{"-kernel-samples", func() error { return runKernelBench(1, 0, "", "") }},
		{"-stream-chunk", func() error { return runStreamBench(1, -5, 1, "", "") }},
		{"-stream-samples", func() error { return runStreamBench(1, 4096, 0, "", "") }},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: err = %v, want the %s error", tc.flag, err, tc.flag)
		}
	}
}
