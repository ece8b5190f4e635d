package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

// TestBatchChargingPredicate pins every arm of the fallback predicate:
// batching engages only on a single-driver machine with no tracer, no
// fault plan, no armed watermarks and no explicit exact-charging
// override — each of those demands (or simulates demanding) per-access
// observability.
func TestBatchChargingPredicate(t *testing.T) {
	base := func() Config {
		return Config{Cost: sim.XeonGold6130(), SingleDriver: true}
	}
	cases := []struct {
		name string
		cfg  func() Config
		want bool
	}{
		{"single-driver default", base, true},
		{"multi-driver", func() Config {
			c := base()
			c.SingleDriver = false
			return c
		}, false},
		{"exact-charging override", func() Config {
			c := base()
			c.ExactCharging = true
			return c
		}, false},
		{"armed watermarks", func() Config {
			c := base()
			c.PhysBytes = 1 << 24
			c.Watermarks = mem.Watermarks{Min: 8, Low: 16, High: 32}
			return c
		}, false},
		{"fault plan", func() Config {
			c := base()
			c.Fault = fault.New(1, fault.Uniform(0.5))
			return c
		}, false},
		{"swap tier", func() Config {
			c := base()
			c.PhysBytes = 1 << 24
			c.Swap = swaptier.Config{ZpoolBytes: 1 << 20}
			return c
		}, false},
	}
	for _, tc := range cases {
		m := MustNew(tc.cfg())
		if got := m.BatchedCharging(); got != tc.want {
			t.Errorf("%s: BatchedCharging() = %v, want %v", tc.name, got, tc.want)
		}
		if got := m.NewContext(0).Env.Batch; got != tc.want {
			t.Errorf("%s: context Env.Batch = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTracingDisablesBatching: arming a tracer after New must flip
// contexts created from then on to the exact path — the predicate is
// evaluated per context, not frozen at construction.
func TestTracingDisablesBatching(t *testing.T) {
	m := MustNew(Config{Cost: sim.XeonGold6130(), SingleDriver: true})
	before := m.NewContext(0)
	if !before.Env.Batch {
		t.Fatal("context before tracing should batch")
	}
	m.EnableTracing(16)
	if m.BatchedCharging() {
		t.Error("BatchedCharging() still true with a tracer armed")
	}
	if after := m.NewContext(0); after.Env.Batch {
		t.Error("context created after EnableTracing still batches")
	}
}

// TestContextChargeRunParity is the machine-level behavioural parity
// check: the same run sequence on a batching machine and on an
// ExactCharging machine must land on identical clocks and counters
// (modulo the fallback count), through the public Context.ChargeRun
// entry and the machine-owned LLC/TLB/bus wiring.
func TestContextChargeRunParity(t *testing.T) {
	build := func(exact bool) (*Context, *mmu.AddressSpace) {
		m := MustNew(Config{Cost: sim.XeonGold6130(), SingleDriver: true, ExactCharging: exact})
		as := m.NewAddressSpace()
		if err := as.Map(mmu.MmapBase, 8); err != nil {
			t.Fatal(err)
		}
		return m.NewContext(0), as
	}
	ctxB, asB := build(false)
	ctxE, asE := build(true)
	if !ctxB.Env.Batch || ctxE.Env.Batch {
		t.Fatalf("fixtures miswired: batch=%v exact=%v", ctxB.Env.Batch, ctxE.Env.Batch)
	}
	runs := []mmu.Run{
		{VA: mmu.MmapBase, Words: 900, Write: true},
		{VA: mmu.MmapBase + 128, Words: 900},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333}, // re-scan of warm lines (MRU short-circuit on the SingleDriver LLC)
		{VA: mmu.MmapBase + 4096, Words: 1, Write: true},
	}
	for _, r := range runs {
		if err := ctxB.ChargeRun(asB, r); err != nil {
			t.Fatal(err)
		}
		if err := ctxE.ChargeRun(asE, r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ctxB.Clock.Now(), ctxE.Clock.Now(); got != want {
		t.Errorf("clock diverges: batched %v, exact %v", got, want)
	}
	pB, pE := *ctxB.Perf, *ctxE.Perf
	if pB.RunFallbacks != 0 || pE.RunFallbacks != uint64(len(runs)) {
		t.Errorf("fallback counts: batched %d (want 0), exact %d (want %d)",
			pB.RunFallbacks, pE.RunFallbacks, len(runs))
	}
	pB.RunFallbacks, pE.RunFallbacks = 0, 0
	if pB != pE {
		t.Errorf("perf diverges:\nbatched: %+v\nexact:   %+v", pB, pE)
	}
}
