// Command gcbench regenerates the paper's evaluation artifacts: every
// figure and table has an experiment ID (fig1..fig16, table1..table3).
//
// Usage:
//
//	gcbench -exp fig11            # one experiment
//	gcbench -exp all              # everything, in paper order
//	gcbench -exp fig12 -quick     # reduced sweep for a fast look
//	gcbench -list                 # available experiment IDs
//	gcbench -exp fig10 -machine gold6240
//	gcbench -exp fig6,fig8,fig9,fig10,ext3   # the SwapVA microbenchmarks
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (fig1..fig16, table1..table3) or 'all'")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		quick   = flag.Bool("quick", false, "reduced sweeps and benchmark subset")
		exact   = flag.Bool("exact", false, "force exact per-word cost charging instead of epoch-batched run settlement (bit-identical output, slower host runtime; exists for parity checking)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a pprof allocation profile (after the run) to this file")
		planes  = bench.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "gcbench: -exp is required (try -list)")
		os.Exit(2)
	}
	opt, err := planes.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(2)
	}
	opt.Quick, opt.Exact = *quick, *exact

	var exps []*bench.Experiment
	if *exp == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "gcbench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// Tables go to stdout and nothing else does: stdout is byte-comparable
	// across -parallel settings (the CI smoke step diffs it). Timing and
	// the simulation-rate summary go to stderr.
	wallStart := time.Now()
	bench.RunExperiments(opt, exps, func(i int, res *bench.Result, err error, wall float64) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gcbench: %s: %v\n", exps[i].ID, err)
			os.Exit(1)
		}
		fmt.Print(res.Format())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s regenerated in %.1fs wall)\n", exps[i].ID, wall)
	})
	wall := time.Since(wallStart).Seconds()
	runs, simNs := bench.HarnessStats()
	fmt.Fprintf(os.Stderr,
		"harness: %d workload runs, %.3fs simulated in %.1fs wall — %.0f sim-ns/host-ms, %.2f runs/s, parallel=%d\n",
		runs, simNs.Seconds(), wall, float64(simNs)/(wall*1e3), float64(runs)/wall, opt.Parallel)
	// The same rate over the system-call-level microbenchmark episodes,
	// which bypass the workload runs, so micro and macro throughput
	// numbers are directly comparable.
	if runs, simNs := bench.MicroStats(); runs > 0 {
		fmt.Fprintf(os.Stderr,
			"harness: %d micro episodes, %.3fs simulated in %.1fs wall — %.0f sim-ns/host-ms, %.2f episodes/s\n",
			runs, simNs.Seconds(), wall, float64(simNs)/(wall*1e3), float64(runs)/wall)
	}

	if err := planes.WriteOutputs(); err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		runtime.GC() // fold transient garbage so the profile shows live + cumulative allocs honestly
		f, err := os.Create(*memProf)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: memprofile:", err)
			os.Exit(1)
		}
	}
}
