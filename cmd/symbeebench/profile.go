package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// withProfiles runs fn under the requested runtime/pprof profiles: a
// CPU profile of the whole run into cpuFile and a heap profile taken
// after it into memFile. An empty name leaves that profile off, so with
// both empty fn runs alone. fn's error comes first; a profile that
// cannot be written is an error too.
func withProfiles(cpuFile, memFile string, fn func() error) error {
	stopCPU := func() error { return nil }
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		stopCPU = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	err := fn()
	if cerr := stopCPU(); err == nil && cerr != nil {
		err = fmt.Errorf("-cpuprofile: %w", cerr)
	}
	if err != nil || memFile == "" {
		return err
	}
	f, err := os.Create(memFile)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC() // a heap profile reports the heap as of the last GC
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}
