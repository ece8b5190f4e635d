package jvm

import (
	"errors"
	"fmt"

	"repro/internal/gc"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrMemoryPressure is the sentinel under allocation failures caused by
// physical-memory backpressure (the min watermark), as opposed to heap
// exhaustion. Match with errors.Is; the concrete error is *PressureError.
var ErrMemoryPressure = errors.New("jvm: memory pressure")

// pressureStallNs is the simulated cost charged to a mutator stalled at
// the low watermark before the emergency collection runs — the direct-
// reclaim stall of a real kernel, flattened to a deterministic constant.
const pressureStallNs = sim.Time(20_000)

// capRaceRecheckNs is the fixed cost of re-reading a tenant's charge
// counter after an injected cap_race fault reported the first read stale.
const capRaceRecheckNs = sim.Time(200)

// PressureError is the structured fail-fast error returned when the
// machine is at the min watermark — or, with per-tenant caps armed, when
// one tenant is at its own min watermark: the allocation is refused and
// the error carries an OOM-killer-style diagnostic of who holds the
// frames. Tenant is empty for machine-wide episodes.
type PressureError struct {
	Level         mem.Pressure
	Tenant        string
	HeapOccupancy float64 // this JVM's heap fill fraction at failure
	Report        machine.MemReport
}

// Error implements error.
func (e *PressureError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("%v (tenant %s at level %s, heap %.1f%% full)\n%s",
			ErrMemoryPressure, e.Tenant, e.Level, 100*e.HeapOccupancy, e.Report)
	}
	return fmt.Sprintf("%v (level %s, heap %.1f%% full)\n%s",
		ErrMemoryPressure, e.Level, 100*e.HeapOccupancy, e.Report)
}

// Unwrap makes errors.Is(err, ErrMemoryPressure) hold.
func (e *PressureError) Unwrap() error { return ErrMemoryPressure }

// pressureDomain is a pool the backpressure ladder watches: the machine's
// frame pool (*mem.PhysMem) or one tenant's cap (*mem.Tenant).
type pressureDomain interface {
	PressureLevel() mem.Pressure
	AboveHigh() bool
}

// checkPressure is the mutator backpressure hook, run once per Alloc. It
// runs the ladder for this JVM's tenant cap, if any, then for the machine
// pool. The cap_race fault site sits on the tenant read: a fired fault
// models a stale read of the charge counter, so the thread pays a fixed
// re-check cost and reads again. With watermarks disarmed and no tenant,
// PressureLevel is a single atomic load and this is a no-op — the
// zero-pressure fast path.
func (t *Thread) checkPressure() error {
	j := t.J
	if j.tenant != nil {
		level := j.tenant.PressureLevel()
		if t.Ctx.Fault.Enabled(trace.FaultCapRace) && t.Ctx.Fault.Fire(trace.FaultCapRace) {
			start := t.Ctx.Clock.Now()
			t.Ctx.Clock.Advance(capRaceRecheckNs)
			t.Ctx.Perf.CapRaceRetries++
			t.Ctx.Perf.FaultsInjected++
			t.Ctx.Trace.Emit(trace.KindFault, "fault:cap-race", start,
				capRaceRecheckNs, uint64(trace.FaultCapRace), uint64(level))
			level = j.tenant.PressureLevel()
		}
		if err := t.ladder(j.tenant, level, &j.tenantArmed); err != nil {
			return err
		}
	}
	return t.ladder(j.M.Phys, j.M.Phys.PressureLevel(), &j.pressureArmed)
}

// ladder is the stall → emergency GC → fail-fast progression for one
// pressure domain at the given level. Below the low watermark the thread
// stalls and triggers one emergency collection per pressure episode:
// *armed is cleared by the collection and set again only after the domain
// recovers above its high watermark (hysteresis, so a run pinned between
// low and high does not collect on every allocation). At the min
// watermark the allocation fails fast with the diagnostic report and no
// collection: no collector unmaps heap pages, so a collection cannot lower
// a tenant's charge, nor the pool's frames in use without a swap tier.
// Only the machine pool has the swap-reclaim rungs: the kswapd stall at
// Low and direct reclaim at Min. A tenant's trace events carry the
// "pressure:tenant-" prefix and its charged pages.
func (t *Thread) ladder(d pressureDomain, level mem.Pressure, armed *bool) error {
	if level == mem.PressureNone {
		if !*armed && d.AboveHigh() {
			*armed = true
		}
		return nil
	}
	j := t.J
	tenant, _ := d.(*mem.Tenant) // nil for the machine pool
	swap := tenant == nil && j.M.SwapEnabled()
	prefix := "pressure:"
	if tenant != nil {
		prefix = "pressure:tenant-"
	}
	if level == mem.PressureMin {
		if swap {
			// Last resort before fail-fast: synchronous direct reclaim on
			// the allocating thread's own clock. Only if the pool is still
			// at the min watermark afterwards is the allocation refused.
			start := t.Ctx.Clock.Now()
			freed := t.Ctx.DirectReclaim()
			t.Ctx.Perf.PressureStalls++
			t.Ctx.Trace.Emit(trace.KindPressure, "pressure:direct-reclaim", start,
				t.Ctx.Clock.Since(start), uint64(mem.PressureMin), uint64(freed))
			if d.PressureLevel() != mem.PressureMin {
				return nil
			}
		}
		report := j.M.MemReport()
		arg := uint64(report.Usage.InUse)
		if tenant != nil {
			arg = uint64(tenant.Usage().Charged)
		}
		t.Ctx.Trace.Emit(trace.KindPressure, prefix+"fail-fast", t.Ctx.Clock.Now(), 0,
			uint64(mem.PressureMin), arg)
		return &PressureError{
			Level:         mem.PressureMin,
			Tenant:        tenant.Name(),
			HeapOccupancy: j.Heap.Occupancy(),
			Report:        report,
		}
	}
	if swap && j.reclaimStall(t) {
		return nil
	}
	if !*armed {
		return nil
	}
	*armed = false
	start := t.Ctx.Clock.Now()
	t.Ctx.Clock.Advance(pressureStallNs)
	t.Ctx.Perf.PressureStalls++
	t.Ctx.Perf.EmergencyGCs++
	arg := uint64(j.M.Phys.FreeFrames())
	if tenant != nil {
		arg = uint64(tenant.Usage().Charged)
	}
	t.Ctx.Trace.Emit(trace.KindPressure, prefix+"emergency-gc", start,
		pressureStallNs, uint64(mem.PressureLow), arg)
	_, err := j.runGC(gc.CauseMemoryPressure)
	return err
}

// reclaimStall is the "reclaim in progress" state between the low and
// min watermarks when the swap plane is armed: the mutator stalls
// briefly, wakes kswapd, and continues without a collection when the
// background reclaimer restored headroom (demoting cold pages is far
// cheaper than an emergency GC). Returns true when reclaim alone
// absorbed the pressure episode; false falls through to the emergency
// collection ladder.
func (j *JVM) reclaimStall(t *Thread) bool {
	start := t.Ctx.Clock.Now()
	t.Ctx.Clock.Advance(pressureStallNs)
	t.Ctx.Perf.PressureStalls++
	freed := j.M.KickReclaim(t.Ctx.Clock.Now())
	t.Ctx.Trace.Emit(trace.KindPressure, "pressure:reclaim-stall", start,
		t.Ctx.Clock.Since(start), uint64(mem.PressureLow), uint64(freed))
	return j.M.Phys.PressureLevel() == mem.PressureNone
}
