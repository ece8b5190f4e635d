package jvm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/sim"
	"repro/internal/swaptier"
)

func pressureMachine(t *testing.T, physBytes int64, wm mem.Watermarks) *machine.Machine {
	t.Helper()
	return machine.MustNew(machine.Config{
		Cost:       sim.XeonGold6130(),
		PhysBytes:  physBytes,
		Watermarks: wm,
	})
}

// ballast maps single pages in a throwaway address space until at most
// target frames are free, returning the mapped addresses for release.
func ballast(t *testing.T, m *machine.Machine, as *mmu.AddressSpace, target int) []uint64 {
	t.Helper()
	var vas []uint64
	for m.Phys.FreeFrames() > target {
		va, err := as.MapRegion(1)
		if err != nil {
			t.Fatalf("ballast at %d free frames (target %d): %v",
				m.Phys.FreeFrames(), target, err)
		}
		vas = append(vas, va)
	}
	return vas
}

// TestLowWatermarkStallsAndRunsEmergencyGC: crossing the low watermark
// stalls the next allocation and triggers exactly one emergency collection
// per pressure episode — repeated allocations while still between low and
// high must not re-collect (hysteresis).
func TestLowWatermarkStallsAndRunsEmergencyGC(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, SVAGCConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)

	// Unpressured allocation: no stall, no emergency collection.
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.PressureStalls != 0 {
		t.Fatal("stall recorded with the pool unpressured")
	}

	ballast(t, m, m.NewAddressSpace(), wm.Low)
	if got := m.Phys.PressureLevel(); got != mem.PressureLow {
		t.Fatalf("pressure level %s after ballast, want low", got)
	}

	clock0 := th.Ctx.Clock.Now()
	gcs0 := j.GCCount("")
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatalf("allocation at the low watermark should stall, not fail: %v", err)
	}
	if th.Ctx.Perf.PressureStalls != 1 || th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("stalls=%d emergencyGCs=%d, want 1 and 1",
			th.Ctx.Perf.PressureStalls, th.Ctx.Perf.EmergencyGCs)
	}
	if th.Ctx.Clock.Now() < clock0+pressureStallNs {
		t.Error("mutator clock not charged the direct-reclaim stall")
	}
	if j.GCCount("") != gcs0+1 {
		t.Errorf("GC count %d, want %d", j.GCCount(""), gcs0+1)
	}
	stats := j.GC.Stats()
	if cause := stats.Pauses[len(stats.Pauses)-1].Cause; cause != gc.CauseMemoryPressure {
		t.Errorf("emergency collection recorded cause %s, want memory pressure", cause)
	}

	// The heap stays fully mapped, so the episode persists: further
	// allocations must ride the disarmed trigger without re-collecting.
	for i := 0; i < 5; i++ {
		if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("hysteresis broken: %d emergency collections within one episode",
			th.Ctx.Perf.EmergencyGCs)
	}
}

// TestMinWatermarkFailsFastWithReport: at the min watermark Alloc refuses
// immediately with a structured *PressureError carrying the OOM-killer-
// style frame report.
func TestMinWatermarkFailsFastWithReport(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 8, High: 16}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, SVAGCConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)

	ballast(t, m, m.NewAddressSpace(), wm.Min)
	_, allocErr := th.Alloc(heap.AllocSpec{Payload: 4096})
	if allocErr == nil {
		t.Fatal("allocation at the min watermark succeeded")
	}
	if !errors.Is(allocErr, ErrMemoryPressure) {
		t.Fatalf("error does not unwrap to ErrMemoryPressure: %v", allocErr)
	}
	var pe *PressureError
	if !errors.As(allocErr, &pe) {
		t.Fatalf("error is not a *PressureError: %v", allocErr)
	}
	if pe.Level != mem.PressureMin {
		t.Errorf("Level = %s, want min", pe.Level)
	}
	if len(pe.Report.Top) == 0 {
		t.Error("report names no address-space consumers")
	}
	msg := allocErr.Error()
	for _, want := range []string{"phys:", "asid", "pressure min", "watermarks"} {
		if !strings.Contains(msg, want) {
			t.Errorf("fail-fast report missing %q:\n%s", want, msg)
		}
	}
	// Fail-fast must not have run a collection.
	if th.Ctx.Perf.EmergencyGCs != 0 {
		t.Error("fail-fast path ran an emergency collection")
	}
}

// TestPressureRearmAboveHigh: releasing ballast above the high watermark
// re-arms the emergency trigger, so a second pressure episode collects
// again.
func TestPressureRearmAboveHigh(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := pressureMachine(t, 4<<20, wm)
	j, err := New(m, SVAGCConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	bAS := m.NewAddressSpace()

	vas := ballast(t, m, bAS, wm.Low)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.EmergencyGCs != 1 {
		t.Fatalf("first episode: %d emergency collections, want 1", th.Ctx.Perf.EmergencyGCs)
	}

	// Release the episode: free ballast until well above High.
	for _, va := range vas {
		bAS.Unmap(va, 1, true)
	}
	if free := m.Phys.FreeFrames(); free <= wm.High {
		t.Fatalf("only %d frames free after releasing ballast, need > High (%d)", free, wm.High)
	}
	// This allocation observes recovery and re-arms the trigger.
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}

	ballast(t, m, bAS, wm.Low)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.EmergencyGCs != 2 {
		t.Errorf("second episode: %d emergency collections total, want 2", th.Ctx.Perf.EmergencyGCs)
	}
}

// tenantJVM builds an SVAGC JVM capped by a capFrames tenant named "t0"
// on m.
func tenantJVM(t *testing.T, m *machine.Machine, capFrames int) (*JVM, *mem.Tenant) {
	t.Helper()
	tenant, err := m.NewTenant("t0", capFrames)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SVAGCConfig(1<<20, 1, 2)
	cfg.Tenant = tenant
	j, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j, tenant
}

// tenantBallast maps one region into the tenant's address space as, so
// that exactly target pages of its budget stay available. It returns the
// region's base and page count for release.
func tenantBallast(t *testing.T, as *mmu.AddressSpace, tenant *mem.Tenant, target int) (uint64, int) {
	t.Helper()
	pages := tenant.CapFrames() - tenant.Usage().Charged - target
	va, err := as.MapRegion(pages)
	if err != nil {
		t.Fatalf("tenant ballast of %d pages: %v", pages, err)
	}
	return va, pages
}

// TestTenantLowWatermarkEpisode: a tenant at its own low watermark runs
// the same rung as the machine pool — one stall and one emergency
// collection per episode, no re-collection while the episode lasts, and
// a second collection only after the budget recovered above High.
func TestTenantLowWatermarkEpisode(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	j, tenant := tenantJVM(t, m, 512)
	wm := tenant.Watermarks()
	th := j.Thread(0)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.PressureStalls != 0 {
		t.Fatal("stall recorded with the tenant unpressured")
	}

	bAS := m.NewAddressSpaceFor(tenant)
	va, pages := tenantBallast(t, bAS, tenant, wm.Low)
	if got := tenant.PressureLevel(); got != mem.PressureLow {
		t.Fatalf("tenant level %s after ballast, want low", got)
	}
	clock0 := th.Ctx.Clock.Now()
	gcs0 := j.GCCount("")
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatalf("allocation at the tenant's low watermark should stall, not fail: %v", err)
	}
	if th.Ctx.Perf.PressureStalls != 1 || th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("stalls=%d emergencyGCs=%d, want 1 and 1",
			th.Ctx.Perf.PressureStalls, th.Ctx.Perf.EmergencyGCs)
	}
	if th.Ctx.Clock.Now() < clock0+pressureStallNs {
		t.Error("mutator clock not charged the stall")
	}
	if j.GCCount("") != gcs0+1 {
		t.Errorf("GC count %d, want %d", j.GCCount(""), gcs0+1)
	}
	stats := j.GC.Stats()
	if cause := stats.Pauses[len(stats.Pauses)-1].Cause; cause != gc.CauseMemoryPressure {
		t.Errorf("emergency collection recorded cause %s, want memory pressure", cause)
	}

	for i := 0; i < 5; i++ {
		if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	if th.Ctx.Perf.EmergencyGCs != 1 {
		t.Errorf("hysteresis broken: %d emergency collections within one episode",
			th.Ctx.Perf.EmergencyGCs)
	}

	bAS.Unmap(va, pages, true)
	if !tenant.AboveHigh() {
		t.Fatalf("tenant not above High after releasing its ballast: %+v", tenant.Usage())
	}
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	tenantBallast(t, bAS, tenant, wm.Low)
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatal(err)
	}
	if th.Ctx.Perf.EmergencyGCs != 2 {
		t.Errorf("second episode: %d emergency collections total, want 2", th.Ctx.Perf.EmergencyGCs)
	}
}

// TestTenantMinWatermarkFailsFast: at its own min watermark a tenant's
// allocation is refused at once, with no collection first — the machine
// rule. A collection cannot help: no collector unmaps heap pages, so the
// tenant's charge would not drop.
func TestTenantMinWatermarkFailsFast(t *testing.T) {
	m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130()})
	j, tenant := tenantJVM(t, m, 512)
	th := j.Thread(0)
	tenantBallast(t, m.NewAddressSpaceFor(tenant), tenant, tenant.Watermarks().Min)
	gcs0 := j.GCCount("")

	_, allocErr := th.Alloc(heap.AllocSpec{Payload: 4096})
	var pe *PressureError
	if !errors.As(allocErr, &pe) {
		t.Fatalf("allocation at the tenant's min watermark returned %v, want *PressureError", allocErr)
	}
	if !errors.Is(allocErr, ErrMemoryPressure) {
		t.Errorf("error does not unwrap to ErrMemoryPressure: %v", allocErr)
	}
	if pe.Tenant != "t0" || pe.Level != mem.PressureMin {
		t.Errorf("PressureError{Tenant: %q, Level: %s}, want t0 at min", pe.Tenant, pe.Level)
	}
	if !strings.Contains(allocErr.Error(), "tenant t0") {
		t.Errorf("fail-fast message does not name the tenant:\n%s", allocErr)
	}
	if th.Ctx.Perf.EmergencyGCs != 0 || th.Ctx.Perf.PressureStalls != 0 || j.GCCount("") != gcs0 {
		t.Errorf("tenant fail-fast collected first: emergencyGCs=%d stalls=%d collections=%d",
			th.Ctx.Perf.EmergencyGCs, th.Ctx.Perf.PressureStalls, j.GCCount("")-gcs0)
	}
}

// TestCapRaceRereadsTenantLevel: with the cap_race site firing on every
// read, each allocation pays one re-check of the tenant's charge and
// nothing else — the run otherwise matches an unfaulted one.
func TestCapRaceRereadsTenantLevel(t *testing.T) {
	plan, err := fault.ParsePlan("cap-race=1")
	if err != nil {
		t.Fatal(err)
	}
	const allocs = 3
	run := func(inj *fault.Injector) *Thread {
		m := machine.MustNew(machine.Config{Cost: sim.XeonGold6130(), Fault: inj})
		j, _ := tenantJVM(t, m, 512)
		th := j.Thread(0)
		for i := 0; i < allocs; i++ {
			if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
				t.Fatal(err)
			}
		}
		return th
	}
	clean, raced := run(nil), run(fault.New(7, plan))
	if got := raced.Ctx.Perf.CapRaceRetries; got != allocs {
		t.Errorf("CapRaceRetries = %d, want %d", got, allocs)
	}
	if got := raced.Ctx.Perf.FaultsInjected; got != allocs {
		t.Errorf("FaultsInjected = %d, want %d", got, allocs)
	}
	if clean.Ctx.Perf.CapRaceRetries != 0 {
		t.Errorf("unfaulted run counted %d cap races", clean.Ctx.Perf.CapRaceRetries)
	}
	if d := raced.Ctx.Clock.Now() - clean.Ctx.Clock.Now(); d != allocs*capRaceRecheckNs {
		t.Errorf("cap races cost %v of mutator time, want %d x %v", d, allocs, capRaceRecheckNs)
	}
}

// swapPressureMachine is pressureMachine with a swap tier behind the pool.
func swapPressureMachine(wm mem.Watermarks) *machine.Machine {
	return machine.MustNew(machine.Config{
		Cost:       sim.XeonGold6130(),
		PhysBytes:  4 << 20,
		Watermarks: wm,
		Swap:       swaptier.Config{ZpoolBytes: 4 << 20},
	})
}

// TestSwapLowWatermarkReclaimAbsorbsEpisode: with a swap tier armed, the
// low rung first wakes kswapd; when demoting cold pages restores the
// pool, the episode ends with a stall and no emergency collection.
func TestSwapLowWatermarkReclaimAbsorbsEpisode(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := swapPressureMachine(wm)
	j, err := New(m, SVAGCConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)

	// Cold resident pages for kswapd to demote.
	ctx := m.NewContext(0)
	cold := m.NewAddressSpace()
	base, err := cold.MapRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 64; p++ {
		if err := cold.WriteWord(&ctx.Env, base+p<<mem.PageShift, p+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Phys.Reserve(m.Phys.FreeFrames() - wm.Low); err != nil {
		t.Fatal(err)
	}
	if got := m.Phys.PressureLevel(); got != mem.PressureLow {
		t.Fatalf("pool level %s after reserving, want low", got)
	}

	gcs0 := j.GCCount("")
	if _, err := th.AllocRooted(heap.AllocSpec{Payload: 4096}); err != nil {
		t.Fatalf("allocation at the low watermark failed: %v", err)
	}
	if th.Ctx.Perf.PressureStalls != 1 || th.Ctx.Perf.EmergencyGCs != 0 || j.GCCount("") != gcs0 {
		t.Errorf("stalls=%d emergencyGCs=%d collections=%d, want 1, 0, 0",
			th.Ctx.Perf.PressureStalls, th.Ctx.Perf.EmergencyGCs, j.GCCount("")-gcs0)
	}
	if kp := m.KswapdPerf(); kp == nil || kp.ReclaimRuns == 0 {
		t.Error("kswapd never ran")
	}
	if got := m.Phys.PressureLevel(); got != mem.PressureNone {
		t.Errorf("pool level %s after kswapd, want none", got)
	}
}

// TestSwapMinWatermarkDirectReclaimThenFailFast: with a swap tier armed,
// the min rung runs direct reclaim on the allocating thread first, and
// refuses the allocation only when the pool is still at Min afterwards.
// Here nothing is resident to reclaim, so the refusal follows.
func TestSwapMinWatermarkDirectReclaimThenFailFast(t *testing.T) {
	wm := mem.Watermarks{Min: 4, Low: 12, High: 24}
	m := swapPressureMachine(wm)
	j, err := New(m, SVAGCConfig(1<<20, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	th := j.Thread(0)
	if err := m.Phys.Reserve(m.Phys.FreeFrames()); err != nil {
		t.Fatal(err)
	}

	_, allocErr := th.Alloc(heap.AllocSpec{Payload: 4096})
	var pe *PressureError
	if !errors.As(allocErr, &pe) || pe.Tenant != "" || pe.Level != mem.PressureMin {
		t.Fatalf("allocation at the min watermark returned %v, want a machine *PressureError at min", allocErr)
	}
	if th.Ctx.Perf.DirectReclaims != 1 || th.Ctx.Perf.PressureStalls != 1 {
		t.Errorf("directReclaims=%d stalls=%d, want 1 and 1",
			th.Ctx.Perf.DirectReclaims, th.Ctx.Perf.PressureStalls)
	}
	if th.Ctx.Perf.EmergencyGCs != 0 {
		t.Error("fail-fast path ran an emergency collection")
	}
}
