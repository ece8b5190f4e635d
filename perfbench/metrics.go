package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gc"
	"repro/internal/sim"
)

// metric is one reported number with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd names the metrics every workload reports in its untraced
// runs, in output order; BENCHMARK.json lists the same set. The
// workload-specific end-to-end metrics (swapva_gc_speedup,
// commit_p99_us, failovers) and failed_frac, which is zero on a healthy
// run, are printed where they apply and reported with the per-layer set.
var endToEnd = []metric{
	{Name: "run_s", Unit: "s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "sim_rate", Unit: "sim_ns/ms"},
	{Name: "host_alloc_mb", Unit: "MB"},
	{Name: "host_peak_mb", Unit: "MB"},
	{Name: "sim_app_ms", Unit: "sim_ms"},
	{Name: "sim_gc_ms", Unit: "sim_ms"},
	{Name: "sim_pause_p50_us", Unit: "sim_us"},
	{Name: "sim_pause_tail_us", Unit: "sim_us"},
}

// perLayer names the metrics a traced run reports, in output order.
var perLayer = []metric{
	{Name: "sim.advance_ns", Unit: "ns"},
	{Name: "cache.access_ns", Unit: "ns"},
	{Name: "mmu.translate_ns", Unit: "ns"},
	{Name: "mmu.charge_run_ns", Unit: "ns"},
	{Name: "mmu.charge_stream_ns", Unit: "ns"},
	{Name: "cache.refs", Unit: "count"},
	{Name: "cache.miss_ratio", Unit: "ratio"},
	{Name: "mmu.tlb_lookups", Unit: "count"},
	{Name: "mmu.tlb_miss_ratio", Unit: "ratio"},
	{Name: "mmu.pt_walks", Unit: "count"},
	{Name: "mmu.pmd_cache_hits", Unit: "count"},
	{Name: "mmu.charge_runs", Unit: "count"},
	{Name: "mmu.stream_mb", Unit: "MB"},
	{Name: "mmu.run_fallback_ratio", Unit: "ratio"},
	{Name: "kernel.swapva_ns", Unit: "ns"},
	{Name: "kernel.memmove_ns", Unit: "ns"},
	{Name: "kernel.swapva_calls", Unit: "count"},
	{Name: "kernel.pages_swapped", Unit: "count"},
	{Name: "kernel.pmd_swaps", Unit: "count"},
	{Name: "kernel.memmove_calls", Unit: "count"},
	{Name: "kernel.copied_mb", Unit: "MB"},
	{Name: "kernel.pte_lock_waits", Unit: "count"},
	{Name: "kernel.pte_lock_wait_us", Unit: "sim_us"},
	{Name: "kernel.syscall_sim_us", Unit: "sim_us"},
	{Name: "machine.ipis", Unit: "count"},
	{Name: "machine.shootdowns", Unit: "count"},
	{Name: "machine.tlb_flushes", Unit: "count"},
	{Name: "machine.shootdown_sim_us", Unit: "sim_us"},
	{Name: "machine.bus_sim_us", Unit: "sim_us"},
	{Name: "gc.mark_ms", Unit: "sim_ms"},
	{Name: "gc.forward_ms", Unit: "sim_ms"},
	{Name: "gc.adjust_ms", Unit: "sim_ms"},
	{Name: "gc.compact_ms", Unit: "sim_ms"},
	{Name: "gc.full_count", Unit: "count"},
	{Name: "gc.minor_count", Unit: "count"},
	{Name: "gc.live_mb", Unit: "MB"},
	{Name: "gc.moved_mb", Unit: "MB"},
	{Name: "gc.degraded", Unit: "count"},
	{Name: "gc.collect_s", Unit: "s"},
	{Name: "jvm.pressure_stalls", Unit: "count"},
	{Name: "jvm.emergency_gcs", Unit: "count"},
	{Name: "swaptier.out_pages", Unit: "count"},
	{Name: "swaptier.in_pages", Unit: "count"},
	{Name: "swaptier.zero_fill_pages", Unit: "count"},
	{Name: "swaptier.reclaim_runs", Unit: "count"},
	{Name: "swaptier.direct_reclaims", Unit: "count"},
	{Name: "swaptier.swap_in_sim_ms", Unit: "sim_ms"},
	{Name: "swaptier.reclaim_sim_ms", Unit: "sim_ms"},
	{Name: "sched.grants", Unit: "count"},
	{Name: "sched.waits", Unit: "count"},
	{Name: "sched.wait_us", Unit: "sim_us"},
	{Name: "sched.max_wait_us", Unit: "sim_us"},
	{Name: "sched.aging_breaks", Unit: "count"},
	{Name: "workloads.run_s", Unit: "s"},
	{Name: "machine.new_s", Unit: "s"},
	{Name: "jvm.new_s", Unit: "s"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio"},
	{Name: "swapva_gc_speedup", Unit: "x"},
	{Name: "commit_p99_us", Unit: "sim_us"},
	{Name: "failovers", Unit: "count"},
	{Name: "failed_frac", Unit: "ratio"},
}

// fill returns the named metrics with values from vals, in order. A name
// without a value is a bug in the benchmark.
func fill(names []metric, vals map[string]float64) ([]metric, error) {
	out := make([]metric, len(names))
	for i, m := range names {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[i] = metric{Name: m.Name, Value: v, Unit: m.Unit}
	}
	return out, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	r := q * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(r-float64(i))
}

// pauseTail describes the pause distribution of a pass: the median, and
// the highest percentile with at least ten pauses beyond it.
type pauseTail struct {
	P50Us      float64 `json:"p50_us"`
	TailUs     float64 `json:"tail_us"`
	Percentile float64 `json:"tail_percentile"`
	Samples    int     `json:"samples"`
	Note       string  `json:"note,omitempty"`
}

// pauseStats uses nearest-rank percentiles. With fewer than eleven
// pauses no percentile has ten beyond it, and the tail is the maximum.
func pauseStats(pauses []sim.Time) pauseTail {
	s := append([]sim.Time(nil), pauses...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n == 0 {
		return pauseTail{Note: "no pauses"}
	}
	pt := pauseTail{Samples: n, P50Us: s[(n+1)/2-1].Microseconds()}
	if n >= 11 {
		pt.TailUs = s[n-11].Microseconds()
		pt.Percentile = 100 * float64(n-10) / float64(n)
	} else {
		pt.TailUs = s[n-1].Microseconds()
		pt.Percentile = 100
		pt.Note = "fewer than 11 pauses: the tail is the maximum"
	}
	return pt
}

// simSummary is everything simulated that a pass reports. It is
// identical for every pass of a run, which the fingerprints check.
type simSummary struct {
	AppMs     float64   `json:"sim_app_ms"`
	GCMs      float64   `json:"sim_gc_ms"`
	Pauses    pauseTail `json:"pauses"`
	Speedup   float64   `json:"swapva_gc_speedup,omitempty"`
	CommitP99 float64   `json:"commit_p99_us,omitempty"`
	Failovers float64   `json:"failovers,omitempty"`
	PerSpec   []specGC  `json:"swapva_per_spec,omitempty"`
}

// specGC pairs one large-objects spec's simulated GC time under both
// collectors with the paper's Fig. 11 reduction where EXPERIMENTS.md
// records one.
type specGC struct {
	Spec           string  `json:"spec"`
	MemmoveGCMs    float64 `json:"gc_ms_svagc_memmove"`
	SwapVAGCMs     float64 `json:"gc_ms_svagc"`
	Speedup        float64 `json:"speedup"`
	Reduction      float64 `json:"reduction_pct"`
	PaperReduction string  `json:"paper_reduction_reference,omitempty"`
}

// paperFig11 holds the paper's Fig. 11 GC-time reductions as recorded in
// EXPERIMENTS.md. They are a reference printed beside the simulated
// numbers, not a gate.
var paperFig11 = map[string]string{
	"Sigverify":    "97% (paper, Fig. 11)",
	"Sparse.large": "70.9% for Sparse.large/4 (paper, Fig. 11; a smaller-object variant of this spec)",
}

func summarize(pr *passResult) simSummary {
	var s simSummary
	var pauses []sim.Time
	gcBy := map[string]map[string]sim.Time{} // bench -> collector -> GC time
	var order []string
	for _, o := range pr.outcomes {
		if o == nil {
			continue
		}
		s.AppMs += o.app.Milliseconds()
		var gcT sim.Time
		for _, p := range o.pauses {
			gcT += p.Total
			pauses = append(pauses, p.Total)
		}
		s.GCMs += gcT.Milliseconds()
		if gcBy[o.unit.bench] == nil {
			gcBy[o.unit.bench] = map[string]sim.Time{}
			order = append(order, o.unit.bench)
		}
		gcBy[o.unit.bench][o.unit.collector] = gcT
		if r := o.smr; r != nil {
			s.Failovers += float64(r.Failovers)
			if o.unit.collector == "svagc" {
				s.CommitP99 = r.P99.Microseconds()
			}
		}
	}
	s.Pauses = pauseStats(pauses)
	var memmove, swapva sim.Time
	for _, b := range order {
		mm, okM := gcBy[b]["svagc-memmove"]
		sv, okS := gcBy[b]["svagc"]
		if !okM || !okS {
			continue
		}
		memmove += mm
		swapva += sv
		sp := specGC{Spec: b, MemmoveGCMs: mm.Milliseconds(), SwapVAGCMs: sv.Milliseconds(),
			PaperReduction: paperFig11[b]}
		if sv > 0 && mm > 0 {
			sp.Speedup = float64(mm / sv)
			sp.Reduction = 100 * float64(1-sv/mm)
		}
		s.PerSpec = append(s.PerSpec, sp)
	}
	if swapva > 0 {
		s.Speedup = float64(memmove / swapva)
	}
	return s
}

// layerCounts derives the per-layer counters from the program's own:
// sim.Perf from perfPass, and the GC pause records, swap tier stats and
// arbiter stats from simPass. The two differ only where the traced pass
// sees what an untraced one cannot (the smr replicas' pauses) or takes
// another charging path (RunFallbacks).
func layerCounts(perfPass, simPass *passResult) map[string]float64 {
	var p sim.Perf
	for _, o := range perfPass.outcomes {
		if o != nil {
			p.Add(&o.perf)
		}
	}
	v := map[string]float64{
		"cache.refs":               float64(p.CacheRefs),
		"cache.miss_ratio":         ratio(p.CacheMisses, p.CacheRefs),
		"mmu.tlb_lookups":          float64(p.TLBLookups),
		"mmu.tlb_miss_ratio":       ratio(p.TLBMisses, p.TLBLookups),
		"mmu.pt_walks":             float64(p.PTWalks),
		"mmu.pmd_cache_hits":       float64(p.PTLevelHits),
		"mmu.charge_runs":          float64(p.ChargeRuns),
		"mmu.stream_mb":            float64(p.StreamBytes) / mb,
		"mmu.run_fallback_ratio":   ratio(p.RunFallbacks, p.ChargeRuns),
		"kernel.swapva_calls":      float64(p.SwapVACalls),
		"kernel.pages_swapped":     float64(p.PagesSwapped),
		"kernel.pmd_swaps":         float64(p.PMDSwaps),
		"kernel.memmove_calls":     float64(p.MemmoveCalls),
		"kernel.copied_mb":         float64(p.BytesCopied) / mb,
		"kernel.pte_lock_waits":    float64(p.PTELockWaits),
		"kernel.pte_lock_wait_us":  float64(p.PTELockWaitNs) / 1e3,
		"machine.ipis":             float64(p.IPIsSent),
		"machine.tlb_flushes":      float64(p.TLBFlushLocal + p.TLBFlushPage),
		"jvm.pressure_stalls":      float64(p.PressureStalls),
		"jvm.emergency_gcs":        float64(p.EmergencyGCs),
		"swaptier.zero_fill_pages": float64(p.ZeroFillPages),
		"swaptier.reclaim_runs":    float64(p.ReclaimRuns),
		"swaptier.direct_reclaims": float64(p.DirectReclaims),
	}
	var shootdowns, outPages, inPages float64
	var phases gc.PhaseTimes
	var full, minor, degraded float64
	var live, moved uint64
	var grants, waits, aging float64
	var waitNs, maxWait sim.Time
	for _, o := range simPass.outcomes {
		if o == nil {
			continue
		}
		shootdowns += float64(o.shootdowns)
		outPages += float64(o.swap.OutPages)
		inPages += float64(o.swap.InPages)
		phases.Mark += o.phases.Mark
		phases.Forward += o.phases.Forward
		phases.Adjust += o.phases.Adjust
		phases.Compact += o.phases.Compact
		for _, pi := range o.pauses {
			switch pi.Kind {
			case gc.KindFull:
				full++
			case gc.KindMinor:
				minor++
			}
			degraded += float64(pi.Degraded)
			live += pi.LiveBytes
			moved += pi.MovedBytes
		}
		if r := o.smr; r != nil {
			grants += float64(r.Arbiter.Grants)
			waits += float64(r.Arbiter.Waits)
			aging += float64(r.Arbiter.AgingBreaks)
			waitNs += r.Arbiter.TotalWaitNs
			maxWait = sim.Max(maxWait, r.Arbiter.MaxWaitNs)
		}
	}
	v["machine.shootdowns"] = shootdowns
	v["swaptier.out_pages"] = outPages
	v["swaptier.in_pages"] = inPages
	v["gc.mark_ms"] = phases.Mark.Milliseconds()
	v["gc.forward_ms"] = phases.Forward.Milliseconds()
	v["gc.adjust_ms"] = phases.Adjust.Milliseconds()
	v["gc.compact_ms"] = phases.Compact.Milliseconds()
	v["gc.full_count"] = full
	v["gc.minor_count"] = minor
	v["gc.degraded"] = degraded
	v["gc.live_mb"] = float64(live) / mb
	v["gc.moved_mb"] = float64(moved) / mb
	v["sched.grants"] = grants
	v["sched.waits"] = waits
	v["sched.aging_breaks"] = aging
	v["sched.wait_us"] = waitNs.Microseconds()
	v["sched.max_wait_us"] = maxWait.Microseconds()
	return v
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
