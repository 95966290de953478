package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWithProfilesWritesProfiles runs a small density sweep under both
// profiles and checks each file holds a profile, and that a failing
// run reports its own error and writes no heap profile.
func TestWithProfilesWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := withProfiles(cpu, mem, func() error {
		return runDensityBench(1, 1, 4, []int{2}, "")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(name))
		}
	}

	failed := errors.New("run failed")
	mem2 := filepath.Join(dir, "mem2.prof")
	if err := withProfiles(filepath.Join(dir, "cpu2.prof"), mem2, func() error { return failed }); !errors.Is(err, failed) {
		t.Errorf("failing run: err = %v, want %v", err, failed)
	}
	if _, err := os.Stat(mem2); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failing run wrote a heap profile (stat err %v)", err)
	}
}
