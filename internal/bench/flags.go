package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Flags are the command-line flags gcbench and svagc share: the run-wide
// planes of Options plus the -trace/-metrics outputs. RegisterFlags
// defines them on a FlagSet; after parsing, Options validates them into
// the run's Options and WriteOutputs writes the observation files.
type Flags struct {
	opt                     Options
	machine, numaPolicy     string
	swapTier, zpool, farLat int64

	// TracePath and MetricsPath are the -trace and -metrics outputs.
	TracePath, MetricsPath string
	// Trace enables tracing on every machine even when neither output is
	// set (svagc's -trace-spill streams events elsewhere).
	Trace bool
	// TraceBuf is the trace ring size, in events per context, of every
	// traced machine (<= 0 selects the default).
	TraceBuf int

	tracers []*trace.Tracer
}

// RegisterFlags defines the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.machine, "machine", "", "cost model: gold6130, gold6240, i5-7600 or gold6130-nvm (empty = each experiment's paper machine, gold6130 for svagc)")
	fs.IntVar(&f.opt.GCWorkers, "gcworkers", 4, "GC threads per JVM")
	fs.Int64Var(&f.opt.Seed, "seed", 42, "workload seed")
	fs.IntVar(&f.opt.Parallel, "parallel", runtime.GOMAXPROCS(0), "host worker pool for independent workload runs (1 = serial; -trace/-metrics force serial). Output is byte-identical at any setting")
	fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON of every machine the run builds, combined (load in chrome://tracing or Perfetto; bypasses run memoisation)")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write a Prometheus text-format metrics snapshot of every machine the run builds, combined (bypasses run memoisation)")
	fs.IntVar(&f.opt.Sockets, "sockets", 1, "sockets (NUMA nodes) the simulated cores are split over")
	fs.StringVar(&f.numaPolicy, "numa-policy", "", "page placement on multi-socket machines: first-touch, interleave, or bind[:N]")
	fs.StringVar(&f.opt.FaultPlan, "fault-plan", "", "fault-injection plan: comma-separated site=rate (sites: pte-lock, ipi-ack, swapva, poison, interconnect, far-write, arbiter-stall, cap-race, all), e.g. 'swapva=0.01,poison=1e-4'")
	fs.Float64Var(&f.opt.FaultRate, "fault-rate", 0, "uniform fault rate applied to every site (per-site -fault-plan entries override it)")
	fs.Int64Var(&f.opt.FaultSeed, "fault-seed", 0, "fault-injection seed; the same seed and plan replay the identical fault sequence (0 = workload seed)")
	fs.Int64Var(&f.swapTier, "swap-tier", 0, "far (NVMe) swap-tier capacity in MiB: replaces oversub1's built-in tier, or arms svagc's -phys machine (0 with -zpool 0 = no override)")
	fs.Int64Var(&f.zpool, "zpool", 0, "compressed-RAM zpool budget in MiB in front of the far tier")
	fs.Int64Var(&f.farLat, "far-lat", 0, "far-device access latency in ns (0 = default 10000)")
	return f
}

// Options validates the parsed flags into the run's Options. When any
// machine is to be traced, OnMachine enables tracing on every machine the
// run builds and keeps its tracer for WriteOutputs.
func (f *Flags) Options() (Options, error) {
	o := f.opt
	if f.machine != "" {
		cost, err := sim.ModelByName(f.machine)
		if err != nil {
			return o, err
		}
		o.Cost = cost
	}
	var err error
	if o.NUMAPolicy, o.NUMABind, err = topology.ParsePolicy(f.numaPolicy); err != nil {
		return o, err
	}
	if _, err := fault.ParsePlanWithRate(o.FaultPlan, o.FaultRate); err != nil {
		return o, err
	}
	o.Swap = swaptier.Config{FarBytes: f.swapTier << 20, ZpoolBytes: f.zpool << 20, FarLatNs: sim.Time(f.farLat)}
	if err := o.Swap.Validate(); err != nil {
		return o, err
	}
	if f.Trace || f.TracePath != "" || f.MetricsPath != "" {
		o.OnMachine = func(m *machine.Machine) {
			f.tracers = append(f.tracers, m.EnableTracing(f.TraceBuf))
		}
	}
	return o, nil
}

// WriteOutputs writes the -trace and -metrics files, each combining every
// machine traced since Options was called.
func (f *Flags) WriteOutputs() error {
	if f.TracePath != "" {
		if err := writeFile(f.TracePath, trace.ChromeTraceOf(f.tracers...).Write); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if f.MetricsPath != "" {
		if err := writeFile(f.MetricsPath, trace.SnapshotOf(f.tracers...).WritePrometheus); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// writeFile streams write into path, closing cleanly on error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
