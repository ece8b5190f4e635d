package machine

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
)

// TestBatchChargingPredicate pins the fallback predicate: batching
// engages on every single-driver machine unless exact charging is
// forced. Observability and robustness planes — armed watermarks, a
// fault plan, a swap tier, a tracer armed after New — must not change
// the charging path; a multi-driver machine always charges per word.
func TestBatchChargingPredicate(t *testing.T) {
	base := func() Config {
		return Config{Cost: sim.XeonGold6130(), SingleDriver: true}
	}
	cases := []struct {
		name   string
		cfg    func() Config
		traced bool
		want   bool
	}{
		{"single-driver default", base, false, true},
		{"multi-driver", func() Config {
			c := base()
			c.SingleDriver = false
			return c
		}, false, false},
		{"exact-charging override", func() Config {
			c := base()
			c.ExactCharging = true
			return c
		}, false, false},
		{"armed watermarks", func() Config {
			c := base()
			c.PhysBytes = 1 << 24
			c.Watermarks = mem.Watermarks{Min: 8, Low: 16, High: 32}
			return c
		}, false, true},
		{"fault plan", func() Config {
			c := base()
			c.Fault = fault.New(1, fault.Uniform(0.5))
			return c
		}, false, true},
		{"swap tier", func() Config {
			c := base()
			c.PhysBytes = 1 << 24
			c.Swap = swaptier.Config{ZpoolBytes: 1 << 20}
			return c
		}, false, true},
		{"tracer armed after New", base, true, true},
	}
	for _, tc := range cases {
		m := MustNew(tc.cfg())
		if tc.traced {
			m.EnableTracing(16)
		}
		if got := m.NewContext(0).Env.Batch; got != tc.want {
			t.Errorf("%s: context Env.Batch = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestContextChargeRunParity is the machine-level behavioural parity
// check: the same run sequence on a batching machine and on an
// ExactCharging machine must land on identical clocks and counters
// (modulo the fallback count), through the public Context.ChargeRun
// entry and the machine-owned LLC/TLB/bus wiring. Beyond the plain
// machine it covers a swap-armed one (demand-zero faults, Accessed bits,
// and reclaim forcing re-faults on the batched path) and a 2-socket one
// under a uniform fault plan (interconnect brownout on remote pages).
func TestContextChargeRunParity(t *testing.T) {
	// An 8-page hot set and 11 cold chunks of 16 pages: almost three
	// times the swap fixture's 64-frame pool.
	const chunks = 11
	const pages = 8 + 16*chunks
	fixtures := []struct {
		name string
		cfg  func() Config
		// covered reports whether the run sequence reached the plane
		// the fixture exists for, so the comparison is not vacuous.
		covered func(sim.Perf) bool
	}{
		{"plain", func() Config {
			return Config{Cost: sim.XeonGold6130()}
		}, func(sim.Perf) bool { return true }},
		{"swap tier", func() Config {
			// A 16-entry TLB makes resident pages miss and walk, the
			// only place the MMU sets Accessed bits for the reclaimer.
			return Config{Cost: sim.XeonGold6130(), PhysBytes: 64 << mem.PageShift,
				TLBEntries: 16, Swap: swaptier.Config{ZpoolBytes: 4 << 20}}
		}, func(p sim.Perf) bool { return p.ZeroFillPages > pages }},
		{"2-socket brownout", func() Config {
			return Config{Cost: sim.XeonGold6130(), Sockets: 2,
				NUMAPolicy: topology.PolicyInterleave, Fault: fault.New(7, fault.Uniform(0.5))}
		}, func(p sim.Perf) bool { return p.NUMARemote > 0 && p.FaultsInjected > 0 }},
	}
	runs := []mmu.Run{
		{VA: mmu.MmapBase, Words: 900, Write: true},
		{VA: mmu.MmapBase + 128, Words: 900},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333},
		{VA: mmu.MmapBase + 16, Stride: 72, Words: 333}, // re-scan of warm lines (MRU short-circuit on the SingleDriver LLC)
		{VA: mmu.MmapBase + 4096, Words: 1, Write: true},
	}
	// A hot set of 8 pages re-read between 16-page cold chunks. On the
	// swap fixture each chunk evicts the hot set from the TLB, so the hot
	// pages walk again and get their Accessed bits set, while the chunks
	// push the pool past its watermarks and the reclaimer consults those
	// bits.
	hot := mmu.Run{VA: mmu.MmapBase, Stride: mem.PageSize, Words: 8}
	for c := 0; c < chunks; c++ {
		runs = append(runs, hot, mmu.Run{VA: mmu.MmapBase + uint64(8+16*c)*mem.PageSize,
			Stride: mem.PageSize, Words: 16, Write: true})
	}
	for _, fx := range fixtures {
		build := func(exact bool) (*Context, *mmu.AddressSpace) {
			cfg := fx.cfg()
			cfg.SingleDriver, cfg.ExactCharging = true, exact
			m := MustNew(cfg)
			as := m.NewAddressSpace()
			if err := as.Map(mmu.MmapBase, pages); err != nil {
				t.Fatal(err)
			}
			return m.NewContext(0), as
		}
		ctxB, asB := build(false)
		ctxE, asE := build(true)
		if !ctxB.Env.Batch || ctxE.Env.Batch {
			t.Fatalf("%s: fixtures miswired: batch=%v exact=%v", fx.name, ctxB.Env.Batch, ctxE.Env.Batch)
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
			t.Errorf("%s: clock diverges: batched %v, exact %v", fx.name, got, want)
		}
		pB, pE := *ctxB.Perf, *ctxE.Perf
		if !fx.covered(pB) {
			t.Errorf("%s: run sequence never reached the plane under test: %+v", fx.name, pB)
		}
		if pB.RunFallbacks != 0 || pE.RunFallbacks != uint64(len(runs)) {
			t.Errorf("%s: fallback counts: batched %d (want 0), exact %d (want %d)",
				fx.name, pB.RunFallbacks, pE.RunFallbacks, len(runs))
		}
		pB.RunFallbacks, pE.RunFallbacks = 0, 0
		if pB != pE {
			t.Errorf("%s: perf diverges:\nbatched: %+v\nexact:   %+v", fx.name, pB, pE)
		}
	}
}
