package main

import (
	"math/rand"
	"time"

	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// ladderPages is the mapped region the ladder works in: small enough for
// the far-memory machine's RAM, large enough to cross PMD-sized spans.
const (
	ladderPages = 96
	movePages   = 10 // one move at the swapping threshold
)

// ladder times the simulator's layers from outside, bottom up, on a fresh
// machine of the workload's shape: one clock advance, one LLC access,
// one translation, one declared page-sized run and stream, and one
// 10-page SwapVA and memmove. Each figure is host ns per operation, the
// median of five batches.
func ladder(shape machine.Config) (map[string]float64, error) {
	m, err := machine.New(shape)
	if err != nil {
		return nil, err
	}
	as := m.NewAddressSpace()
	ctx := m.NewContext(0)
	k := kernel.New(m)
	va, err := as.MapRegion(ladderPages)
	if err != nil {
		return nil, err
	}
	page := uint64(mem.PageSize)
	words := int(page / 8)
	// Fault every page in once so the swap-armed shape times resident
	// accesses, as the other shapes do.
	if err := as.ChargeStream(&ctx.Env, va, ladderPages*int(page), true, false); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(1))
	lines := make([]uint64, 1<<14)
	span := 3 * uint64(m.LLC.Sets()*m.LLC.Ways()*m.LLC.LineSize()) / 2
	for i := range lines {
		lines[i] = uint64(rng.Int63n(int64(span))) &^ 63
	}
	step := ctx.Cost.CyclesNs(3.3)

	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	half := uint64(ladderPages/2) * page
	res := map[string]float64{
		"sim.advance_ns": timeOp(1<<20, func(i int) { ctx.Clock.Advance(step) }),
		"cache.access_ns": timeOp(1<<20, func(i int) {
			m.LLC.Access(lines[i&(len(lines)-1)])
		}),
		"mmu.translate_ns": timeOp(1<<19, func(i int) {
			_, err := as.Translate(&ctx.Env, va+uint64(i*8)%(ladderPages*page))
			keep(err)
		}),
		"mmu.charge_run_ns": timeOp(1<<13, func(i int) {
			keep(ctx.ChargeRun(as, mmu.Run{VA: va + uint64(i%ladderPages)*page, Words: words}))
		}),
		"mmu.charge_stream_ns": timeOp(1<<13, func(i int) {
			keep(as.ChargeStream(&ctx.Env, va+uint64(i%ladderPages)*page, int(page), false, false))
		}),
		"kernel.swapva_ns": timeOp(1<<11, func(i int) {
			keep(k.SwapVA(ctx, as, va, va+half, movePages, kernel.DefaultOptions()))
		}),
		"kernel.memmove_ns": timeOp(1<<11, func(i int) {
			keep(k.Memmove(ctx, as, va+half, va, movePages*int(page)))
		}),
	}
	return res, ferr
}

// timeOp runs op n times in five batches and returns the median batch's
// host ns per operation.
func timeOp(n int, op func(i int)) float64 {
	const batches = 5
	per := make([]float64, batches)
	i := 0
	for b := range per {
		t0 := time.Now()
		for end := i + n/batches; i < end; i++ {
			op(i)
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n/batches)
	}
	return median(per)
}
