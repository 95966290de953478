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
