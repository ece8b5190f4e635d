package mmu

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runFixture is one (address space, env) pair with a small LLC, mapped
// over enough pages for multi-page runs. batch selects the settlement
// path under test.
func runFixture(t *testing.T, batch bool) (*AddressSpace, *Env) {
	t.Helper()
	as := NewAddressSpace(1, mem.NewPhysMem(0))
	if err := as.Map(MmapBase, 16); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(sim.XeonGold6130())
	env.Cache = cache.MustNew(1<<15, 8, 64) // small: long runs wrap and evict
	env.Batch = batch
	return as, env
}

// runOps is a mixed sequence exercising every settlement case: dense
// single-line, dense multi-page, strided within a page, strided across
// pages, charge-only, data-moving reads and writes, reads of just-written
// lines (cache hits), and a run long enough to wrap the small LLC.
type runOp struct {
	run  Run
	data bool // move data (ReadRun/WriteRun) instead of charge-only
}

func runOps() []runOp {
	return []runOp{
		{run: Run{VA: MmapBase, Words: 3, Write: true}, data: true},
		{run: Run{VA: MmapBase, Words: 3}, data: true},
		{run: Run{VA: MmapBase + 64, Words: 700, Write: true}}, // dense, crosses a page
		{run: Run{VA: MmapBase + 64, Words: 700}},              // re-read: mixed hits
		{run: Run{VA: MmapBase, Stride: 64, Words: 200}},       // line-strided, 4 pages
		{run: Run{VA: MmapBase + 8, Stride: 136, Words: 77, Write: true}},
		{run: Run{VA: MmapBase, Stride: 64, Words: 200}}, // re-scan of warm lines
		{run: Run{VA: MmapBase + 16, Stride: 72, Words: 150, Write: true}},
		{run: Run{VA: MmapBase + 2*64, Words: 1}},
		{run: Run{VA: MmapBase, Words: 0}},
		{run: Run{VA: MmapBase, Words: 6000, Write: true}, data: true}, // wraps the LLC
		{run: Run{VA: MmapBase + 8192, Words: 512}, data: true},
	}
}

// applyOps executes the op sequence on one fixture, returning every word
// the data-moving reads observed.
func applyOps(t *testing.T, as *AddressSpace, env *Env, ops []runOp) []uint64 {
	t.Helper()
	var observed []uint64
	for i, op := range ops {
		if !op.data {
			if err := as.ChargeRun(env, op.run); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		buf := make([]uint64, op.run.Words)
		if op.run.Write {
			for j := range buf {
				buf[j] = uint64(i)<<32 | uint64(j)
			}
			if err := as.WriteRun(env, op.run.VA, buf); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			continue
		}
		if err := as.ReadRun(env, op.run.VA, buf); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		observed = append(observed, buf...)
	}
	return observed
}

// normalizePathCounters zeroes the counters that legitimately differ
// between the batched and exact settlement paths (only the fallback
// count; everything else must match bit for bit).
func normalizePathCounters(p *sim.Perf) {
	p.RunFallbacks = 0
}

// requireParity asserts that a batched fixture and an exact fixture are
// indistinguishable: the identical clock and counters (bar the fallback
// count), and a fresh per-word probe sequence that sees the same cache
// hits and TLB misses on both.
func requireParity(t *testing.T, asB *AddressSpace, envB *Env, asE *AddressSpace, envE *Env) {
	t.Helper()
	if got, want := envB.Clock.Now(), envE.Clock.Now(); got != want {
		t.Errorf("clock diverges: batched %v, exact %v (delta %g)", got, want, float64(got-want))
	}
	pB, pE := *envB.Perf, *envE.Perf
	normalizePathCounters(&pB)
	normalizePathCounters(&pE)
	if pB != pE {
		t.Errorf("perf diverges:\nbatched: %+v\nexact:   %+v", pB, pE)
	}
	for i := 0; i < 512; i++ {
		va := MmapBase + uint64(i*104)&^7
		paB, err := asB.Translate(envB, va)
		if err != nil {
			t.Fatal(err)
		}
		paE, err := asE.Translate(envE, va)
		if err != nil {
			t.Fatal(err)
		}
		if hb, he := envB.Cache.Access(paB), envE.Cache.Access(paE); hb != he {
			t.Fatalf("cache state diverges at probe %d (va %#x): batched hit=%v, exact hit=%v",
				i, va, hb, he)
		}
	}
	if envB.Perf.TLBMisses != envE.Perf.TLBMisses {
		t.Errorf("TLB state diverges: %d vs %d misses after probing",
			envB.Perf.TLBMisses, envE.Perf.TLBMisses)
	}
}

// TestRunBatchedMatchesExact is the core parity property: the same run
// sequence over identically-mapped spaces leaves a batched env and an
// exact env with the identical clock, counters, observed data and
// subsequent cache behaviour, on a shared and on an exclusive
// (lock-elided) cache.
func TestRunBatchedMatchesExact(t *testing.T) {
	for _, exclusive := range []bool{false, true} {
		asB, envB := runFixture(t, true)
		asE, envE := runFixture(t, false)
		envB.Cache.SetExclusive(exclusive)
		envE.Cache.SetExclusive(exclusive)

		obsB := applyOps(t, asB, envB, runOps())
		obsE := applyOps(t, asE, envE, runOps())

		if len(obsB) != len(obsE) {
			t.Fatalf("exclusive=%v: observed %d words batched, %d exact", exclusive, len(obsB), len(obsE))
		}
		for i := range obsB {
			if obsB[i] != obsE[i] {
				t.Fatalf("exclusive=%v: data diverges at word %d: %#x vs %#x", exclusive, i, obsB[i], obsE[i])
			}
		}
		if envE.Perf.RunFallbacks == 0 || envB.Perf.RunFallbacks != 0 {
			t.Errorf("exclusive=%v: fallback counting wrong: exact %d (want >0), batched %d (want 0)",
				exclusive, envE.Perf.RunFallbacks, envB.Perf.RunFallbacks)
		}
		requireParity(t, asB, envB, asE, envE)
	}
}

// The entry points FuzzRunParity drives, indexed by its entry argument.
const (
	entryChargeRun = iota
	entryReadRun
	entryWriteRun
	entryChargeStream
	entryReadWords
	entryWriteWords
	entryRead
	entryWrite
	numEntries
)

// fuzzTransfer performs one transfer through the given entry point and
// returns what it read (nil for writes and charge-only entries). Written
// data depends only on the arguments, so two fixtures given the same
// call store the same bytes.
func fuzzTransfer(as *AddressSpace, env *Env, entry int, va uint64, stride, words int, write bool) ([]byte, error) {
	ws := make([]uint64, words)
	bs := make([]byte, 8*words)
	for i := range ws {
		ws[i] = uint64(i)*0x9e3779b97f4a7c15 ^ va
		binary.LittleEndian.PutUint64(bs[8*i:], ws[i])
	}
	var err error
	switch entry {
	case entryChargeRun:
		return nil, as.ChargeRun(env, Run{VA: va, Stride: stride, Words: words, Write: write})
	case entryReadRun:
		err = as.ReadRun(env, va, ws)
	case entryWriteRun:
		return nil, as.WriteRun(env, va, ws)
	case entryChargeStream:
		return nil, as.ChargeStream(env, va, 8*words, write, false)
	case entryReadWords:
		err = as.ReadWords(env, va, ws)
	case entryWriteWords:
		return nil, as.WriteWords(env, va, ws)
	case entryRead:
		return bs, as.Read(env, va, bs)
	case entryWrite:
		return nil, as.Write(env, va, bs)
	}
	for i, w := range ws {
		binary.LittleEndian.PutUint64(bs[8*i:], w)
	}
	return bs, err
}

// FuzzRunParity: any single transfer — through any run or stream entry,
// dense or strided, read or write, on a shared or exclusive cache —
// leaves a batched fixture and an exact fixture with the same data, clock,
// counters and future cache behaviour. The transfer is applied twice, so
// the second pass settles against lines the first one installed. The
// seed corpus is the runOps table (each op under its own entry, on both
// cache kinds) plus every stream entry over a page-crossing range, so a
// plain go test run is deterministic; -fuzz explores beyond it.
func FuzzRunParity(f *testing.F) {
	for _, op := range runOps() {
		entry := entryChargeRun
		if op.data {
			entry = entryReadRun
			if op.run.Write {
				entry = entryWriteRun
			}
		}
		for _, exclusive := range []bool{false, true} {
			f.Add(uint32(op.run.VA-MmapBase), uint16(op.run.Stride), uint16(op.run.Words),
				op.run.Write, exclusive, uint8(entry))
		}
	}
	for e := entryChargeStream; e < numEntries; e++ {
		f.Add(uint32(100), uint16(0), uint16(700), e == entryChargeStream, e%2 == 0, uint8(e))
	}
	f.Fuzz(func(t *testing.T, off uint32, stride, words uint16, write, exclusive bool, entry uint8) {
		const span = 16 * mem.PageSize // the fixture's mapped bytes
		e := int(entry) % numEntries
		o := int(off % span)
		step := 8
		switch e {
		case entryChargeStream, entryRead, entryWrite:
			// Byte-granular: any offset, a byte count of 8*words.
		case entryChargeRun:
			o &^= 7
			if s := int(stride) % 1024 &^ 7; s != 0 {
				step = s
			}
		default:
			o &^= 7
		}
		// The largest word count that stays inside the mapping.
		limit := (span - o) / 8
		if e == entryChargeRun {
			limit = (span-o-8)/step + 1
		}
		n := int(words) % (limit + 1)

		asB, envB := runFixture(t, true)
		asE, envE := runFixture(t, false)
		envB.Cache.SetExclusive(exclusive)
		envE.Cache.SetExclusive(exclusive)
		image := make([]byte, span)
		for i := range image {
			image[i] = byte(i*7 + i>>8)
		}
		for _, as := range []*AddressSpace{asB, asE} {
			if err := as.RawWrite(MmapBase, image); err != nil {
				t.Fatal(err)
			}
		}
		va := MmapBase + uint64(o)
		for pass := 0; pass < 2; pass++ {
			gotB, err := fuzzTransfer(asB, envB, e, va, step, n, write)
			if err != nil {
				t.Fatalf("batched entry %d: %v", e, err)
			}
			gotE, err := fuzzTransfer(asE, envE, e, va, step, n, write)
			if err != nil {
				t.Fatalf("exact entry %d: %v", e, err)
			}
			if !bytes.Equal(gotB, gotE) {
				t.Fatalf("entry %d pass %d: read data diverges", e, pass)
			}
		}
		memB, memE := make([]byte, span), make([]byte, span)
		if err := asB.RawRead(MmapBase, memB); err != nil {
			t.Fatal(err)
		}
		if err := asE.RawRead(MmapBase, memE); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(memB, memE) {
			t.Fatalf("entry %d: memory diverges", e)
		}
		requireParity(t, asB, envB, asE, envE)
	})
}

// TestRunSplitPointsProperty: settling one long run in arbitrary
// contiguous pieces — including splits in the middle of a page — must be
// bit-identical to settling it whole, on both paths. Only the run count
// itself may differ. This is the property that makes "epoch-batched"
// well-defined: where the epoch boundaries land cannot matter.
func TestRunSplitPointsProperty(t *testing.T) {
	const words = 5000
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for _, batch := range []bool{true, false} {
		asWhole, envWhole := runFixture(t, batch)
		if err := asWhole.ChargeRun(envWhole, Run{VA: MmapBase, Words: words, Write: true}); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			asSplit, envSplit := runFixture(t, batch)
			va, left := uint64(MmapBase), words
			for left > 0 {
				n := 1 + rng.Intn(left)
				if err := asSplit.ChargeRun(envSplit, Run{VA: va, Words: n, Write: true}); err != nil {
					t.Fatal(err)
				}
				va += uint64(8 * n)
				left -= n
			}
			if got, want := envSplit.Clock.Now(), envWhole.Clock.Now(); got != want {
				t.Errorf("batch=%v seed=%d trial %d: clock %v split vs %v whole",
					batch, seed, trial, got, want)
			}
			pS, pW := *envSplit.Perf, *envWhole.Perf
			pS.ChargeRuns, pW.ChargeRuns = 0, 0
			pS.RunFallbacks, pW.RunFallbacks = 0, 0
			if pS != pW {
				t.Errorf("batch=%v seed=%d trial %d: perf diverges:\nsplit: %+v\nwhole: %+v",
					batch, seed, trial, pS, pW)
			}
		}
	}
}

// fakeNUMA routes odd frames remote, with distinct local/remote
// latencies, and counts accesses the way machine.NUMAView does — the
// contract LatencyAtN documents (n calls' worth of counting).
type fakeNUMA struct {
	local, remote int
}

func (f *fakeNUMA) isLocal(pa uint64) bool { return (pa>>mem.PageShift)%2 == 0 }

func (f *fakeNUMA) LatencyAt(pa uint64) float64 {
	if f.isLocal(pa) {
		f.local++
		return 61
	}
	f.remote++
	return 139
}

func (f *fakeNUMA) BWAt(pa uint64, n int) float64 { return 10 }

func (f *fakeNUMA) LocalAt(pa uint64) bool { return f.isLocal(pa) }

func (f *fakeNUMA) LatencyAtN(pa uint64, n int) float64 {
	f.local += n
	return 61
}

// TestRunNUMARemoteFallsBackPerWord: on a NUMA env, node-local page
// segments settle in closed form while cross-socket segments take the
// per-word loop — and the result is still bit-identical to the fully
// exact path, side-effect counts on the NUMA view included.
func TestRunNUMARemoteFallsBackPerWord(t *testing.T) {
	asB, envB := runFixture(t, true)
	asE, envE := runFixture(t, false)
	numaB, numaE := &fakeNUMA{}, &fakeNUMA{}
	envB.NUMA, envE.NUMA = numaB, numaE

	ops := []runOp{
		{run: Run{VA: MmapBase, Words: 1500, Write: true}, data: true}, // ~3 pages: local, remote, local
		{run: Run{VA: MmapBase + 512, Stride: 96, Words: 300}},
		{run: Run{VA: MmapBase, Words: 1500}, data: true},
	}
	obsB := applyOps(t, asB, envB, ops)
	obsE := applyOps(t, asE, envE, ops)

	if got, want := envB.Clock.Now(), envE.Clock.Now(); got != want {
		t.Errorf("clock diverges under NUMA: batched %v, exact %v", got, want)
	}
	pB, pE := *envB.Perf, *envE.Perf
	normalizePathCounters(&pB)
	normalizePathCounters(&pE)
	if pB != pE {
		t.Errorf("perf diverges under NUMA:\nbatched: %+v\nexact:   %+v", pB, pE)
	}
	if *numaB != *numaE {
		t.Errorf("NUMA view counts diverge: batched %+v, exact %+v", *numaB, *numaE)
	}
	if numaB.remote == 0 {
		t.Error("test never exercised the remote fallback (no remote accesses)")
	}
	for i := range obsB {
		if obsB[i] != obsE[i] {
			t.Fatalf("data diverges at word %d", i)
		}
	}
}

// TestRunValidation: malformed runs are rejected before any charging.
func TestRunValidation(t *testing.T) {
	as, env := runFixture(t, true)
	bad := []Run{
		{VA: MmapBase + 4, Words: 1},         // misaligned VA
		{VA: MmapBase, Stride: 12, Words: 2}, // stride not a multiple of 8
		{VA: MmapBase, Stride: -8, Words: 2}, // negative stride
		{VA: MmapBase, Words: -1},            // negative count
	}
	for _, r := range bad {
		if err := as.ChargeRun(env, r); err == nil {
			t.Errorf("run %+v accepted, want error", r)
		}
	}
	if env.Clock.Now() != 0 {
		t.Errorf("rejected runs advanced the clock to %v", env.Clock.Now())
	}
	if err := as.ReadRun(env, MmapBase+4, make([]uint64, 1)); err == nil {
		t.Error("misaligned ReadRun accepted")
	}
	if err := as.WriteRun(env, MmapBase+4, make([]uint64, 1)); err == nil {
		t.Error("misaligned WriteRun accepted")
	}
}

// BenchmarkChargeRun is the regression benchmark for the batched
// settlement path — the single hottest entry in the simulator. CI runs
// it (one iteration suffices under -race) so a change that silently
// knocks runs back onto the per-word path shows up as a step change.
func BenchmarkChargeRun(b *testing.B) {
	bench := func(b *testing.B, r Run) {
		as := NewAddressSpace(1, mem.NewPhysMem(0))
		if err := as.Map(MmapBase, 16); err != nil {
			b.Fatal(err)
		}
		env := NewEnv(sim.XeonGold6130())
		env.Cache = cache.MustNew(1<<15, 8, 64)
		env.Cache.SetExclusive(true)
		env.Batch = true
		b.SetBytes(int64(8 * r.Words))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := as.ChargeRun(env, r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dense", func(b *testing.B) {
		bench(b, Run{VA: MmapBase, Words: 4096, Write: true})
	})
	b.Run("strided", func(b *testing.B) {
		bench(b, Run{VA: MmapBase, Stride: 64, Words: 512})
	})
}

// TestLookupCountedRetriesUntilStable pins the seqlock read loop: a
// reader that finds the entry write-locked spins (counting retries)
// until the writer publishes, then returns the stable translation — it
// never degrades to a scheduling-dependent miss.
func TestLookupCountedRetriesUntilStable(t *testing.T) {
	tlb := NewTLB(64)
	tlb.Insert(7, 42, 99)
	if f, ok, retries := tlb.LookupCounted(7, 42); !ok || f != 99 || retries != 0 {
		t.Fatalf("uncontended lookup = (%v, %v, %d), want (99, true, 0)", f, ok, retries)
	}

	// Hold the entry's seqlock from "another core", then release it
	// after a beat; the reader must spin through the held window and
	// still return the committed translation.
	i := uint64(42) & tlb.mask
	s := tlb.lockEntry(i)
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		tlb.frames[i].Store(123)
		tlb.seq[i].Store(s + 2)
		close(done)
	}()
	f, ok, retries := tlb.LookupCounted(7, 42)
	<-done
	if !ok || f != 123 {
		t.Errorf("contended lookup = (%v, %v), want (123, true)", f, ok)
	}
	if retries == 0 {
		t.Error("reader reported zero retries despite a held seqlock")
	}
}
