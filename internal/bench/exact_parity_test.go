package bench

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// paritySpecs covers every quick-sweep workload family, several
// collectors, a multi-JVM run (bus contention) — the surface the
// figures are drawn from — and an interleaved 2-socket run under every
// fault site, where interconnect brownout rolls on remote pages (under
// first-touch a single JVM's pages all stay local). Each spec runs
// under its opt plus Quick.
var paritySpecs = []struct {
	runSpec
	opt Options
}{
	{runSpec{"svagc", "Sparse.large/4", 1.2, 1}, Options{}},
	{runSpec{"svagc", "Sigverify", 1.2, 1}, Options{}},
	{runSpec{"svagc", "CryptoAES", 1.5, 1}, Options{}},
	{runSpec{"svagc", "Bisort", 1.2, 1}, Options{}},
	{runSpec{"svagc", "LRUCache", 1.2, 1}, Options{}},
	{runSpec{"svagc-memmove", "Sparse.large/4", 1.2, 1}, Options{}},
	{runSpec{"parallelgc", "Bisort", 1.2, 1}, Options{}},
	{runSpec{"copygc", "CryptoAES", 1.5, 1}, Options{}},
	{runSpec{"svagc", "CryptoAES", 1.5, 4}, Options{}}, // co-running JVMs
	{runSpec{"svagc", "Sigverify", 1.2, 1}, Options{Sockets: 2, NUMAPolicy: topology.PolicyInterleave,
		FaultPlan: "all=0.4", FaultSeed: 7}},
}

// TestBatchedExactParity is the tentpole's contract, stated as a test:
// for every parity spec, the complete runResult — simulated times, GC
// stats, phase breakdowns and the full Perf block — must be identical
// whether declared runs settle in closed form (the default single-driver
// machine) or via the forced exact per-word path (Options.Exact). Only
// RunFallbacks, the counter that says which path executed, may differ.
func TestBatchedExactParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every parity workload twice")
	}
	for _, s := range paritySpecs {
		opt := s.opt
		opt.Quick = true
		batched, err := runWorkload(opt, s.collector, s.bench, s.factor, s.jvms)
		if err != nil {
			t.Fatalf("%+v batched: %v", s, err)
		}
		opt.Exact = true
		exact, err := runWorkload(opt, s.collector, s.bench, s.factor, s.jvms)
		if err != nil {
			t.Fatalf("%+v exact: %v", s, err)
		}
		b, e := *batched, *exact
		if b.Perf.ChargeRuns == 0 {
			t.Errorf("%s/%s: no runs were declared — the parity test is vacuous", s.collector, s.bench)
		}
		if s.opt.FaultPlan != "" && (b.Perf.FaultsInjected == 0 || b.Perf.NUMARemote == 0) {
			t.Errorf("%s/%s: faulted spec injected %d faults over %d remote accesses — vacuous",
				s.collector, s.bench, b.Perf.FaultsInjected, b.Perf.NUMARemote)
		}
		if b.Perf.RunFallbacks != 0 {
			t.Errorf("%s/%s: batched run fell back %d times (predicate should allow closed form)",
				s.collector, s.bench, b.Perf.RunFallbacks)
		}
		if e.Perf.RunFallbacks != e.Perf.ChargeRuns {
			t.Errorf("%s/%s: exact run settled %d of %d runs in closed form",
				s.collector, s.bench, e.Perf.ChargeRuns-e.Perf.RunFallbacks, e.Perf.ChargeRuns)
		}
		b.Perf.RunFallbacks, e.Perf.RunFallbacks = 0, 0
		if b.Perf != e.Perf {
			t.Errorf("%s/%s x%.1f j%d: Perf diverges:\nbatched: %+v\nexact:   %+v",
				s.collector, s.bench, s.factor, s.jvms, b.Perf, e.Perf)
		}
		b.Perf, e.Perf = sim.Perf{}, sim.Perf{}
		if !reflect.DeepEqual(b, e) {
			t.Errorf("%s/%s x%.1f j%d: results diverge:\nbatched: %+v\nexact:   %+v",
				s.collector, s.bench, s.factor, s.jvms, b, e)
		}
	}
}
