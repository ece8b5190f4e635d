package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/gc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/trace"
)

// traceEvents sizes each traced context's ring so that no event of a
// unit is overwritten; the record reports any that were.
const traceEvents = 1 << 17

// span is one host-clock interval around a call into a layer.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the pass started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
}

// spanLog keeps a pass's spans in memory.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int {
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0).Seconds(), Parent: parent})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) end(id int) {
	l.spans[id].End = time.Since(l.t0).Seconds()
	l.open = l.open[:len(l.open)-1]
}

// total sums the durations of the spans called name.
func (l *spanLog) total(name string) float64 { return l.totalFrom(0, name) }

// totalFrom sums the durations of the spans called name that began at
// or after span from.
func (l *spanLog) totalFrom(from int, name string) float64 {
	var s float64
	for _, sp := range l.spans[from:] {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// passCtx is what a unit sees of the pass it runs in.
type passCtx struct {
	seed   int64
	traced bool // arm the tracer and the lisp2 heap verifier
	spans  *spanLog
}

func (pc *passCtx) newMachine(cfg machine.Config) (*machine.Machine, error) {
	id := pc.spans.begin("machine.New")
	m, err := machine.New(cfg)
	pc.spans.end(id)
	if err != nil {
		return nil, err
	}
	if pc.traced {
		m.EnableTracing(traceEvents)
	}
	return m, nil
}

func (pc *passCtx) newJVM(m *machine.Machine, collector string, heapBytes int64, threads int) (*jvm.JVM, error) {
	cfg, err := collectorConfig(collector, heapBytes, threads, pc.traced)
	if err != nil {
		return nil, err
	}
	id := pc.spans.begin("jvm.New")
	defer pc.spans.end(id)
	return jvm.New(m, cfg)
}

func (pc *passCtx) allocRooted(th *jvm.Thread, spec heap.AllocSpec) (*gc.Root, error) {
	id := pc.spans.begin("Thread.AllocRooted")
	defer pc.spans.end(id)
	return th.AllocRooted(spec)
}

func (pc *passCtx) collectNow(j *jvm.JVM) error {
	id := pc.spans.begin("JVM.CollectNow")
	defer pc.spans.end(id)
	_, err := j.CollectNow()
	return err
}

func (pc *passCtx) writePayload(j *jvm.JVM, th *jvm.Thread, r *gc.Root, src []uint64) error {
	id := pc.spans.begin("Heap.WritePayloadWords")
	defer pc.spans.end(id)
	return j.Heap.WritePayloadWords(th.Ctx, r.Obj, 0, 0, src)
}

func (pc *passCtx) readPayload(j *jvm.JVM, th *jvm.Thread, r *gc.Root, dst []uint64) error {
	id := pc.spans.begin("Heap.ReadPayloadWords")
	defer pc.spans.end(id)
	return j.Heap.ReadPayloadWords(th.Ctx, r.Obj, 0, 0, dst)
}

// unitErr is one unit run that failed, by error or by output check.
type unitErr struct {
	unit string
	err  error
}

// passResult is one pass over a workload's units.
type passResult struct {
	traced   bool
	outcomes []*outcome // nil where the unit failed
	failures []unitErr
	spans    *spanLog
	runS     float64   // host seconds in the units, set-up excluded
	unitS    []float64 // runS unit by unit
	setupS   float64   // host seconds in machine.New and jvm.New
	allocMB  float64   // Go bytes allocated over the pass
	peakMB   float64   // largest live Go heap at the end of a unit
	selfNs   map[string]float64
	dropped  uint64
}

// mb is the unit of every MB figure: 2^20 bytes.
const mb = 1 << 20

// runPass runs every unit once. Between units it forces a Go collection,
// outside the timed spans, both to read the live heap while the unit's
// machine is still reachable and so that each unit starts from the same
// host state.
func runPass(units []unit, seed int64, traced bool) *passResult {
	pr := &passResult{traced: traced, outcomes: make([]*outcome, len(units)),
		unitS: make([]float64, len(units)), spans: newSpanLog(), selfNs: map[string]float64{}}
	pc := &passCtx{seed: seed, traced: traced, spans: pr.spans}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for i := range units {
		u := &units[i]
		id := pc.spans.begin("unit " + u.name())
		out, err := runUnit(pc, u)
		pc.spans.end(id)
		sp := pr.spans.spans[id]
		pr.unitS[i] = sp.End - sp.Start - pr.spans.totalFrom(id, "machine.New") - pr.spans.totalFrom(id, "jvm.New")
		pr.runS += pr.unitS[i]
		if err != nil {
			pr.failures = append(pr.failures, unitErr{u.name(), err})
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		pr.peakMB = math.Max(pr.peakMB, float64(ms.HeapAlloc)/mb)
		out.unit = u
		out.print = fingerprint(out)
		if traced {
			pr.absorbTrace(out)
		}
		out.m = nil
		pr.outcomes[i] = out
	}
	runtime.ReadMemStats(&ms)
	pr.allocMB = float64(ms.TotalAlloc-alloc0) / mb
	pr.setupS = pr.spans.total("machine.New") + pr.spans.total("jvm.New")
	return pr
}

func runUnit(pc *passCtx, u *unit) (*outcome, error) {
	body, err := u.setup(pc)
	if err != nil {
		return nil, err
	}
	return body()
}

// setupOnly builds every unit's machine and JVMs without running them
// and returns the host seconds that took.
func setupOnly(units []unit, seed int64) (float64, error) {
	pc := &passCtx{seed: seed, spans: newSpanLog()}
	for i := range units {
		if _, err := units[i].setup(pc); err != nil {
			return 0, err
		}
		runtime.GC()
	}
	return pc.spans.total("machine.New") + pc.spans.total("jvm.New"), nil
}

// absorbTrace reads the unit's tracer: simulated self time per event
// kind and, for workloads whose JVMs are private, the pause list.
func (pr *passResult) absorbTrace(out *outcome) {
	tr := out.m.Tracer()
	pr.dropped += trace.SnapshotOf(tr).Dropped
	events := tr.Merge()
	for k, ns := range selfTimes(events) {
		pr.selfNs[k] += ns
	}
	if out.smr == nil {
		return
	}
	for _, e := range events {
		switch {
		case e.Kind == trace.KindSpan && e.Name == "gc-pause":
			out.pauses = append(out.pauses, gc.PauseInfo{At: e.TS, Total: e.Dur, LiveBytes: e.Arg1, SwappedPages: e.Arg2})
		case e.Kind == trace.KindPhase && e.Name == "mark":
			out.phases.Mark += e.Dur
		case e.Kind == trace.KindPhase && e.Name == "forward":
			out.phases.Forward += e.Dur
		case e.Kind == trace.KindPhase && e.Name == "adjust":
			out.phases.Adjust += e.Dur
		case e.Kind == trace.KindPhase && e.Name == "compact":
			out.phases.Compact += e.Dur
		}
		if end := e.TS + e.Dur; end > out.app {
			out.app = end
		}
	}
}

// selfTimes returns, per event kind, the simulated time of its spans
// minus the part covered by spans nested inside them on the same
// context. Spans are emitted when they end, so a child precedes its
// parent in a context's emission order.
func selfTimes(events []trace.Event) map[string]float64 {
	type ev struct {
		trace.Event
		seq int
	}
	byTID := map[int][]ev{}
	for i, e := range events {
		byTID[e.TID] = append(byTID[e.TID], ev{e, i})
	}
	tids := make([]int, 0, len(byTID))
	for tid := range byTID {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	self := map[string]float64{}
	for _, tid := range tids {
		evs := byTID[tid]
		sort.SliceStable(evs, func(a, b int) bool {
			if evs[a].TS != evs[b].TS {
				return evs[a].TS < evs[b].TS
			}
			if evs[a].Dur != evs[b].Dur {
				return evs[a].Dur > evs[b].Dur
			}
			return evs[a].seq > evs[b].seq
		})
		var stack []ev
		for _, e := range evs {
			end := e.TS + e.Dur
			for len(stack) > 0 && stack[len(stack)-1].TS+stack[len(stack)-1].Dur < end {
				stack = stack[:len(stack)-1]
			}
			self[e.Kind.String()] += float64(e.Dur)
			if len(stack) > 0 {
				self[stack[len(stack)-1].Kind.String()] -= float64(e.Dur)
			}
			if e.Dur > 0 {
				stack = append(stack, e)
			}
		}
	}
	return self
}

// fingerprint hashes every simulated result of a unit. RunFallbacks is
// left out: it counts which settlement path ran, and the traced pass
// takes the exact path by design.
func fingerprint(out *outcome) uint64 {
	h := fnv.New64a()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(float64(out.app))
	for _, p := range out.pauses {
		put([]float64{float64(p.At), float64(p.Total), float64(p.Phases.Mark),
			float64(p.Phases.Forward), float64(p.Phases.Adjust), float64(p.Phases.Compact)})
		put([]uint64{p.LiveBytes, p.LiveObjects, p.MovedBytes, p.SwappedPages,
			p.SwapVACalls, p.MemmoveCalls, p.IPIs, p.Degraded})
	}
	perf := out.perf
	perf.RunFallbacks = 0
	put(perf)
	put([]int64{int64(out.swap.Slots), int64(out.swap.FarSlots), int64(out.swap.ZpoolSlots),
		out.swap.ZpoolUsed, out.swap.FarUsed})
	put([]uint64{out.swap.OutPages, out.swap.InPages, out.swap.ZeroPages, out.shootdowns})
	if r := out.smr; r != nil {
		put([]int64{int64(r.Commits), int64(r.Failovers), int64(r.Evictions), int64(r.ReplayEntries)})
		put([]float64{float64(r.P50), float64(r.P99), float64(r.P999), float64(r.Max), float64(r.MaxPause)})
		put([]uint64{r.Arbiter.Grants, r.Arbiter.Waits, r.Arbiter.Deferrals, r.Arbiter.AgingBreaks, r.CommitHash})
		put([]float64{float64(r.Arbiter.TotalWaitNs), float64(r.Arbiter.MaxWaitNs)})
	}
	return h.Sum64()
}
