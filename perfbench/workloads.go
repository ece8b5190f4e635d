package main

import (
	"fmt"
	"math/rand"

	"repro/internal/gc"
	"repro/internal/gc/copygc"
	"repro/internal/gc/lisp2"
	"repro/internal/gc/svagc"
	"repro/internal/heap"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/workloads"
	"repro/internal/workloads/smr"
)

// Shared run parameters: the figures' heap factor and GC worker count.
const (
	heapFactor = 1.2
	gcWorkers  = 4
	// bisortThreads runs one of Bisort's eight mutator threads, which
	// keeps a small-objects pass near a host second, so a run holds
	// about twenty passes to take a percentile over.
	bisortThreads = 1
)

// size holds the inputs the benchmark sizes itself. fullSize is what the
// command measures; the smoke test runs tinySize through the same code.
type size struct {
	largeSpecs []string // Table II specs run under svagc and svagc-memmove
	smrRounds  int
	smrHeap    int64   // per-replica heap
	farRatio   float64 // far-memory heap as a multiple of RAM
}

var fullSize = size{
	largeSpecs: []string{"FFT.large", "Sparse.large", "SOR.large x10", "LU.large",
		"Compress", "Sigverify", "CryptoAES", "PageRank (PR)", "Parallelsort", "LRUCache"},
	smrRounds: 80,
	smrHeap:   32 << 20,
	farRatio:  4,
}

var tinySize = size{
	largeSpecs: []string{"Sigverify"},
	smrRounds:  8,
	smrHeap:    16 << 20,
	farRatio:   1.5,
}

// workload is one set of inputs the benchmark runs. Every unit of a pass
// builds a fresh machine of the workload's shape, so modelled caches and
// TLBs start empty, as they do for every figure a user regenerates.
type workload struct {
	name string
	why  string
	// shape is the machine each unit runs on; the host ladder is timed
	// on a machine of the same shape.
	shape func() machine.Config
	units func(sz size) []unit
	// simFromTrace marks a workload whose pauses are visible only through
	// the tracer: smr.Run keeps its replica JVMs private. Its reference
	// pass is therefore traced.
	simFromTrace bool
}

// unit is one simulated run inside a pass.
type unit struct {
	bench     string
	collector string
	// setup builds the unit's machine and JVMs and returns the body that
	// runs on them.
	setup func(pc *passCtx) (body func() (*outcome, error), err error)
}

// outcome is what one unit's run leaves behind. Everything except m is
// simulated, so it repeats exactly for a fixed seed.
type outcome struct {
	unit       *unit
	m          *machine.Machine // dropped once the pass has read the tracer
	app        sim.Time         // simulated application time
	pauses     []gc.PauseInfo
	phases     gc.PhaseTimes
	perf       sim.Perf
	swap       swaptier.Stats
	shootdowns uint64
	smr        *smr.Result
	print      uint64 // fingerprint of the fields above
}

var registry = []*workload{
	{
		name:  "large-objects",
		why:   "Table II array specs under svagc and svagc-memmove at 1.2x: compaction goes through SwapVA, PMD-cached walks, shootdowns and declared streams",
		shape: plainShape,
		units: func(sz size) []unit {
			var us []unit
			for _, name := range sz.largeSpecs {
				for _, c := range []string{jvm.CollectorSVAGC, jvm.CollectorSVAGCBase} {
					us = append(us, specUnit(name, c, 0))
				}
			}
			return us
		},
	},
	{
		name:  "small-objects",
		why:   "Bisort, one mutator thread, under svagc at 1.2x: word-at-a-time node traffic through heap, mmu, cache and sim; no object reaches SwapVA",
		shape: plainShape,
		units: func(sz size) []unit {
			return []unit{specUnit("Bisort", jvm.CollectorSVAGC, bisortThreads)}
		},
	},
	{
		name:  "smr-cluster",
		why:   "3 capped-tenant replicas per collector (svagc, copygc, parallelgc) under a GC arbiter: the only workload through sched and the serving tail",
		shape: plainShape,
		units: func(sz size) []unit {
			var us []unit
			for _, c := range []string{jvm.CollectorSVAGC, jvm.CollectorCopy, jvm.CollectorParallel} {
				us = append(us, smrUnit(c, sz))
			}
			return us
		},
		simFromTrace: true,
	},
	{
		name:  "far-memory",
		why:   "heap at 4x a 16 MiB RAM with zpool and far tier under svagc and copygc: swap-in/out and reclaim on the per-word charging path",
		shape: farShape,
		units: func(sz size) []unit {
			return []unit{farUnit(jvm.CollectorSVAGC, sz.farRatio), farUnit(jvm.CollectorCopy, sz.farRatio)}
		},
	},
}

func (u *unit) name() string { return u.bench + "/" + u.collector }

func workloadByName(name string) (*workload, error) {
	for _, w := range registry {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func plainShape() machine.Config {
	return machine.Config{Cost: sim.XeonGold6130(), SingleDriver: true}
}

// The far-memory shape is the oversub1 figure's: 16 MiB of RAM, a zpool
// worth a quarter of it and a far tier of 8x RAM.
const (
	farPhysBytes  = int64(4096) << mem.PageShift
	farObjPayload = 64 << 10
)

func farShape() machine.Config {
	return machine.Config{
		Cost:      sim.XeonGold6130(),
		PhysBytes: farPhysBytes,
		Swap: swaptier.Config{
			ZpoolBytes: farPhysBytes / 4,
			FarBytes:   8 * farPhysBytes,
		},
		SingleDriver: true,
	}
}

// collectorConfig returns the preset JVM configuration for a collector.
// With verify set, the lisp2-based presets are rebuilt with VerifyHeap
// armed, which the presets expose no switch for; the lisp2.Config values
// mirror svagc.New and copygc.New. Should they drift apart, the traced
// pass's fingerprints stop matching the untraced passes'.
func collectorConfig(name string, heapBytes int64, threads int, verify bool) (jvm.Config, error) {
	cfg, ok := jvm.ConfigFor(name, heapBytes, threads, gcWorkers)
	if !ok {
		return cfg, fmt.Errorf("unknown collector %q", name)
	}
	if !verify {
		return cfg, nil
	}
	var lc lisp2.Config
	switch name {
	case jvm.CollectorSVAGC, jvm.CollectorSVAGCBase:
		sc := svagc.Config{Workers: gcWorkers, DisableSwapVA: name == jvm.CollectorSVAGCBase}
		lc = lisp2.Config{Workers: gcWorkers, Policy: svagc.Policy(sc),
			Aggregate: !sc.DisableSwapVA, PinnedCompaction: true, WorkStealing: true}
	case jvm.CollectorCopy:
		lc = lisp2.Config{Workers: gcWorkers, Policy: copygc.Policy(copygc.Config{}),
			WorkStealing: true, CopyCompact: true}
	default:
		return cfg, nil
	}
	lc.VerifyHeap = true
	cfg.NewCollector = func(h *heap.Heap, roots *gc.RootSet) gc.Collector {
		return lisp2.New(name, h, roots, lc)
	}
	return cfg, nil
}

// jvmOutcome reads a finished JVM run through the public accessors.
func jvmOutcome(m *machine.Machine, j *jvm.JVM) *outcome {
	st := j.GC.Stats()
	out := &outcome{
		m:          m,
		app:        j.AppTime(),
		pauses:     append([]gc.PauseInfo(nil), st.Pauses...),
		phases:     st.PhaseTotals(""),
		perf:       j.TotalPerf(),
		shootdowns: m.Shootdowns(),
	}
	if kp := m.KswapdPerf(); kp != nil {
		out.perf.Add(kp)
	}
	if m.SwapEnabled() {
		out.swap = m.SwapTier().Stats()
	}
	return out
}

// specUnit runs one Table II spec under one collector at heapFactor.
func specUnit(bench, collector string, threads int) unit {
	u := unit{bench: bench, collector: collector}
	u.setup = func(pc *passCtx) (func() (*outcome, error), error) {
		spec, err := workloads.ByName(bench)
		if err != nil {
			return nil, err
		}
		n := threads
		if n <= 0 {
			n = spec.Threads
		}
		m, err := pc.newMachine(plainShape())
		if err != nil {
			return nil, err
		}
		// The live set grows with the thread count, so the heap is scaled
		// with it to keep the spec's 1.2x heap factor.
		j, err := pc.newJVM(m, collector, spec.MinHeap(heapFactor)*int64(n)/int64(spec.Threads), n)
		if err != nil {
			return nil, err
		}
		return func() (*outcome, error) {
			id := pc.spans.begin("workloads.Spec.Run")
			err := spec.Run(j, pc.seed)
			pc.spans.end(id)
			if err != nil {
				return nil, err
			}
			return jvmOutcome(m, j), nil
		}, nil
	}
	return u
}

// smrUnit runs one collector's three-replica cluster: 4 ms election
// timeout, one collection at a time machine-wide, and per-tenant caps of
// twice the heap plus slack, as the smr1 figure sizes them.
func smrUnit(collector string, sz size) unit {
	u := unit{bench: "smr", collector: collector}
	u.setup = func(pc *passCtx) (func() (*outcome, error), error) {
		m, err := pc.newMachine(plainShape())
		if err != nil {
			return nil, err
		}
		return func() (*outcome, error) {
			id := pc.spans.begin("smr.Run")
			res, err := smr.Run(m, smr.Config{
				Collector:         collector,
				Replicas:          3,
				HeapBytes:         sz.smrHeap,
				Rounds:            sz.smrRounds,
				ElectionTimeoutNs: 4 * sim.Millisecond,
				GCWorkers:         gcWorkers,
				Seed:              pc.seed,
				CapFrames:         2*int(sz.smrHeap>>mem.PageShift) + 64,
				MaxConcurrentGC:   1,
			})
			pc.spans.end(id)
			if err != nil {
				return nil, err
			}
			if res.Commits != sz.smrRounds {
				return nil, fmt.Errorf("smr: %d commits over %d rounds", res.Commits, sz.smrRounds)
			}
			return &outcome{m: m, smr: res, shootdowns: m.Shootdowns()}, nil
		}, nil
	}
	return u
}

// farPattern fills buf with one object's salted payload: one word in four
// nonzero, so a page compresses about 4:1 but is never all-zero and must
// really be stored by the tier.
func farPattern(buf []uint64, salt uint64) {
	for i := range buf {
		if i%4 == 0 {
			buf[i] = 0x9e3779b97f4a7c15 ^ (salt + uint64(i))
		} else {
			buf[i] = 0
		}
	}
}

// farUnit fills a ratio x RAM heap with a half-live graph of 64 KiB
// objects, runs one explicit full collection, re-reads the live set and
// checks every payload word. The seed picks which object of each pair
// stays live and salts the payloads.
func farUnit(collector string, ratio float64) unit {
	u := unit{bench: "far", collector: collector}
	u.setup = func(pc *passCtx) (func() (*outcome, error), error) {
		m, err := pc.newMachine(farShape())
		if err != nil {
			return nil, err
		}
		heapBytes := int64(ratio * float64(farPhysBytes))
		j, err := pc.newJVM(m, collector, heapBytes, 1)
		if err != nil {
			return nil, err
		}
		return func() (*outcome, error) {
			th := j.Thread(0)
			rng := rand.New(rand.NewSource(pc.seed))
			salt := rng.Uint64()
			n := int(heapBytes * 2 / 5 / farObjPayload)
			live := make([]*gc.Root, 0, n)
			buf := make([]uint64, farObjPayload/8)
			for i := 0; i < n; i++ {
				liveFirst := rng.Intn(2) == 0
				for k := 0; k < 2; k++ {
					r, err := pc.allocRooted(th, heap.AllocSpec{Payload: farObjPayload, Class: uint16(1 + k)})
					if err != nil {
						return nil, err
					}
					if (k == 0) != liveFirst {
						j.Roots.Remove(r)
						continue
					}
					farPattern(buf, salt+uint64(i)<<32)
					if err := pc.writePayload(j, th, r, buf); err != nil {
						return nil, err
					}
					live = append(live, r)
				}
			}
			if err := pc.collectNow(j); err != nil {
				return nil, err
			}
			want := make([]uint64, len(buf))
			for i, r := range live {
				if err := pc.readPayload(j, th, r, buf); err != nil {
					return nil, err
				}
				farPattern(want, salt+uint64(i)<<32)
				for w := range buf {
					if buf[w] != want[w] {
						return nil, fmt.Errorf("far: live object %d word %d reads %#x, want %#x", i, w, buf[w], want[w])
					}
				}
			}
			if _, err := pc.allocRooted(th, heap.AllocSpec{Payload: 512}); err != nil {
				return nil, fmt.Errorf("far: allocation after the collection: %w", err)
			}
			return jvmOutcome(m, j), nil
		}, nil
	}
	return u
}
