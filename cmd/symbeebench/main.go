// Command symbeebench reruns the paper's evaluation on the simulated
// testbed and prints each table/figure series. Its bench modes write
// JSON artifacts for regression tracking: the phase kernels (-kernel),
// the ARQ layer (-reliable) and the shared medium (-density). Receive
// speed is measured by the benchmark under bench/ and gated by
// scripts/receive_gate.sh.
//
// Usage:
//
//	symbeebench -list
//	symbeebench -run fig13
//	symbeebench -all
//	symbeebench -run fig12 -packets 200 -seed 7 -csv
//	symbeebench -kernel -kernel-out BENCH_kernel.json -kernel-baseline BENCH_kernel.json
//	symbeebench -reliable -reliable-out BENCH_reliable.json
//	symbeebench -density -density-out BENCH_density.json
//	symbeebench -density -density-widths 256 -cpuprofile crowd.prof
//
// -cpuprofile and -memprofile (off by default) profile any mode with
// runtime/pprof; read the files with go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"symbee/internal/cli"
	"symbee/internal/sim"
)

func main() {
	var (
		seed    = cli.RegisterSeed(flag.CommandLine)
		list    = flag.Bool("list", false, "list available experiments")
		run     = flag.String("run", "", "experiment id to run (see -list)")
		all     = flag.Bool("all", false, "run every experiment")
		packets = flag.Int("packets", 0, "packets per measurement point (0 = default)")
		short   = flag.Bool("short", false, "quarter-size runs")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")

		kernelBench    = flag.Bool("kernel", false, "measure the phase-extraction kernels (exact vs fast atan2)")
		kernelOut      = flag.String("kernel-out", "BENCH_kernel.json", "file for the kernel JSON artifact (\"\" = don't write)")
		kernelSamples  = flag.Int("kernel-samples", 1<<20, "lag-product samples per kernel pass")
		kernelBaseline = flag.String("kernel-baseline", "", "baseline BENCH_kernel.json to gate against (fail on >20% speedup regression)")

		reliableBench = flag.Bool("reliable", false, "measure the ARQ reliability layer (soak acceptance, overhead, loss sweep)")
		reliableOut   = flag.String("reliable-out", "BENCH_reliable.json", "file for the reliability JSON artifact (\"\" = don't write)")
		reliableRuns  = flag.Int("reliable-runs", 100, "seeded soak runs")
		reliableMsg   = flag.Int("reliable-msg", 4096, "message size in bytes for every reliability measurement")

		densityBench  = flag.Bool("density", false, "sweep the event-driven shared medium over large sender populations")
		densityOut    = flag.String("density-out", "BENCH_density.json", "file for the density sweep JSON artifact (\"\" = don't write)")
		densityFrames = flag.Int("density-frames", 4, "frames each sender transmits in the density sweep")
		densityGap    = flag.Float64("density-gap", 4, "mean inter-frame gap in airtime multiples for the density sweep")
		densityWidths = flag.String("density-widths", "8,64,256,1024", "comma-separated sender populations to sweep")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (\"\" = off)")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (\"\" = off)")
	)
	flag.Parse()
	err := withProfiles(*cpuProfile, *memProfile, func() error {
		switch {
		case *densityBench:
			widths, err := cli.ParseIntList(*densityWidths)
			if err != nil {
				return err
			}
			return runDensityBench(*seed, *densityFrames, *densityGap, widths, *densityOut)
		case *reliableBench:
			return runReliableBench(*seed, *reliableRuns, *reliableMsg, *reliableOut)
		case *kernelBench:
			return runKernelBench(*seed, *kernelSamples, *kernelOut, *kernelBaseline)
		}
		return realMain(*list, *run, *all, sim.Options{Seed: *seed, Packets: *packets, Short: *short}, *csv)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "symbeebench:", err)
		os.Exit(1)
	}
}

func realMain(list bool, run string, all bool, opts sim.Options, csv bool) error {
	if opts.Packets < 0 {
		return fmt.Errorf("-packets must not be negative, got %d", opts.Packets)
	}
	switch {
	case list:
		for _, e := range sim.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Description)
		}
		return nil
	case run != "":
		e, err := sim.ByID(run)
		if err != nil {
			return err
		}
		return runOne(e, opts, csv)
	case all:
		for _, e := range sim.Experiments() {
			if err := runOne(e, opts, csv); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	flag.Usage()
	return nil
}

func runOne(e sim.Experiment, opts sim.Options, csv bool) error {
	start := time.Now()
	t, err := e.Run(opts)
	if err != nil {
		return err
	}
	if csv {
		fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
	} else {
		fmt.Println(t.Render())
	}
	fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}
