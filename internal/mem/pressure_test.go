package mem

import (
	"errors"
	"strings"
	"testing"
)

func TestWatermarkValidation(t *testing.T) {
	pm := NewPhysMem(64 * PageSize)
	cases := []struct {
		w  Watermarks
		ok bool
	}{
		{Watermarks{}, true}, // zero value disables
		{Watermarks{Min: 4, Low: 8, High: 16}, true},
		{Watermarks{Min: 8, Low: 4, High: 16}, false}, // min > low
		{Watermarks{Min: 4, Low: 16, High: 8}, false}, // low > high
		{Watermarks{Min: -1, Low: 4, High: 8}, false},
		{Watermarks{Min: 4, Low: 8, High: 64}, false}, // high >= limit
	}
	for _, c := range cases {
		err := pm.SetWatermarks(c.w)
		if (err == nil) != c.ok {
			t.Errorf("SetWatermarks(%+v) err=%v, want ok=%v", c.w, err, c.ok)
		}
	}
	unbounded := NewPhysMem(0)
	if err := unbounded.SetWatermarks(Watermarks{Min: 1, Low: 2, High: 3}); err == nil {
		t.Error("watermarks on an unbounded pool should be rejected")
	}
	if err := unbounded.SetWatermarks(Watermarks{}); err != nil {
		t.Errorf("disabling watermarks on an unbounded pool: %v", err)
	}
}

func TestWatermarkGateBlocksAtMin(t *testing.T) {
	const limit = 32
	pm := NewPhysMem(limit * PageSize)
	if err := pm.SetWatermarks(Watermarks{Min: 4, Low: 8, High: 12}); err != nil {
		t.Fatal(err)
	}
	var got []FrameID
	for {
		id, err := pm.AllocFrame()
		if err != nil {
			if !errors.Is(err, ErrWatermark) || !errors.Is(err, ErrNoMemory) {
				t.Fatalf("watermark failure should match both sentinels, got %v", err)
			}
			break
		}
		got = append(got, id)
	}
	// Ordinary allocation must stop exactly when free hits Min.
	if want := limit - 4; len(got) != want {
		t.Fatalf("allocated %d frames before the gate, want %d", len(got), want)
	}
	if p := pm.PressureLevel(); p != PressureMin {
		t.Errorf("PressureLevel = %v, want min", p)
	}
	// The emergency pool is still drawable through a reservation.
	if err := pm.Reserve(4); err != nil {
		t.Fatalf("Reserve(4) in the emergency pool: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := pm.AllocFrameReserved(0); err != nil {
			t.Fatalf("reserved draw %d failed: %v", i, err)
		}
	}
	if pm.Reserved() != 0 {
		t.Errorf("Reserved = %d after drawing all, want 0", pm.Reserved())
	}
}

func TestPressureLevelsAndHysteresisCounts(t *testing.T) {
	const limit = 32
	pm := NewPhysMem(limit * PageSize)
	if err := pm.SetWatermarks(Watermarks{Min: 4, Low: 8, High: 12}); err != nil {
		t.Fatal(err)
	}
	if p := pm.PressureLevel(); p != PressureNone {
		t.Fatalf("empty pool pressure = %v, want none", p)
	}
	ids, err := pm.AllocFrames(limit - 8) // available: 8 == Low
	if err != nil {
		t.Fatal(err)
	}
	if p := pm.PressureLevel(); p != PressureLow {
		t.Errorf("at low watermark pressure = %v, want low", p)
	}
	for _, id := range ids[:8] { // available: 16 > High
		pm.FreeFrame(id)
	}
	if p := pm.PressureLevel(); p != PressureNone {
		t.Errorf("after freeing above high, pressure = %v, want none", p)
	}
	if free := pm.FreeFrames(); free != 16 {
		t.Errorf("FreeFrames = %d, want 16", free)
	}
}

// TestPoolAndTenantClassifyAlike: the machine pool and a tenant cap with
// the same thresholds report the same level, snapshot level and
// re-arm test at every available-frame count — both pressure domains
// share one classification.
func TestPoolAndTenantClassifyAlike(t *testing.T) {
	const limit = 32
	wm := Watermarks{Min: 4, Low: 8, High: 12}
	pm := NewPhysMem(limit * PageSize)
	if err := pm.SetWatermarks(wm); err != nil {
		t.Fatal(err)
	}
	tn := &Tenant{name: "t", cap: limit, wm: wm}
	for avail := limit; avail >= 0; avail-- {
		want := PressureNone
		switch {
		case avail <= wm.Min:
			want = PressureMin
		case avail <= wm.Low:
			want = PressureLow
		}
		// Reserved frames count against availability like live ones, and
		// a reservation may dig below Min, so it reaches every count.
		pm.ReleaseReserve(pm.Reserved())
		if err := pm.Reserve(limit - avail); err != nil {
			t.Fatal(err)
		}
		if err := tn.ChargePages(limit - avail - tn.Usage().Charged); err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]interface {
			PressureLevel() Pressure
			AboveHigh() bool
		}{"pool": pm, "tenant": tn} {
			if got := d.PressureLevel(); got != want {
				t.Errorf("%s at %d available: PressureLevel %s, want %s", name, avail, got, want)
			}
			if got := d.AboveHigh(); got != (avail > wm.High) {
				t.Errorf("%s at %d available: AboveHigh %v", name, avail, got)
			}
		}
		if got := pm.Usage().Pressure; got != want {
			t.Errorf("pool Usage at %d available: Pressure %s, want %s", avail, got, want)
		}
		if got := tn.Usage().Pressure; got != want {
			t.Errorf("tenant Usage at %d available: Pressure %s, want %s", avail, got, want)
		}
	}
}

func TestReservationsTightenTheGate(t *testing.T) {
	const limit = 32
	pm := NewPhysMem(limit * PageSize)
	if err := pm.SetWatermarks(Watermarks{Min: 4, Low: 8, High: 12}); err != nil {
		t.Fatal(err)
	}
	if err := pm.Reserve(10); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := pm.AllocFrame(); err != nil {
			break
		}
		n++
	}
	// 32 total - 10 reserved - 4 min = 18 grantable to ordinary callers.
	if n != 18 {
		t.Errorf("ordinary allocations with 10 reserved = %d, want 18", n)
	}
	pm.ReleaseReserve(10)
	for i := 0; i < 10; i++ {
		if _, err := pm.AllocFrame(); err != nil {
			t.Fatalf("post-release allocation %d failed: %v", i, err)
		}
	}
}

func TestReserveFailsOnlyOnHardExhaustion(t *testing.T) {
	pm := NewPhysMem(8 * PageSize)
	if _, err := pm.AllocFrames(6); err != nil {
		t.Fatal(err)
	}
	if err := pm.Reserve(2); err != nil {
		t.Fatalf("Reserve within capacity: %v", err)
	}
	if err := pm.Reserve(1); err == nil {
		t.Fatal("Reserve beyond capacity should fail")
	} else if !errors.Is(err, ErrNoMemory) {
		t.Fatalf("Reserve failure should wrap ErrNoMemory, got %v", err)
	}
	// Unbounded pools accept any reservation.
	if err := NewPhysMem(0).Reserve(1 << 20); err != nil {
		t.Fatalf("unbounded Reserve: %v", err)
	}
}

func TestFreeFrameToReserveRecreditsPool(t *testing.T) {
	pm := NewPhysMem(16 * PageSize)
	if err := pm.Reserve(1); err != nil {
		t.Fatal(err)
	}
	// One reserved frame backs many transient draw/free cycles.
	for i := 0; i < 50; i++ {
		id, err := pm.AllocFrameReserved(0)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if pm.Reserved() != 0 {
			t.Fatalf("cycle %d: reservation not consumed", i)
		}
		pm.FreeFrameToReserve(id)
		if pm.Reserved() != 1 {
			t.Fatalf("cycle %d: reservation not re-credited", i)
		}
	}
	pm.ReleaseReserve(1)
	if pm.FramesInUse() != 0 || pm.Reserved() != 0 {
		t.Errorf("leak: inUse=%d reserved=%d", pm.FramesInUse(), pm.Reserved())
	}
}

func TestAllocFrameReservedWithoutReservation(t *testing.T) {
	pm := NewPhysMem(8 * PageSize)
	if err := pm.SetWatermarks(Watermarks{Min: 2, Low: 3, High: 4}); err != nil {
		t.Fatal(err)
	}
	// With nothing reserved, AllocFrameReserved is an ordinary gated alloc.
	for i := 0; i < 6; i++ {
		if _, err := pm.AllocFrameReserved(0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := pm.AllocFrameReserved(0); !errors.Is(err, ErrWatermark) {
		t.Fatalf("unreserved draw at min watermark: err=%v, want ErrWatermark", err)
	}
}

// TestNodeSpillRegression guards the zonelist-fallback path: a node-local
// allocation at the global frame limit must spill to other nodes' free
// lists rather than report OOM while free frames exist. (Regression test:
// a node-0-only allocator OOMs multi-socket machines here.)
func TestNodeSpillRegression(t *testing.T) {
	const limit = 16
	pm := NewPhysMem(limit * PageSize)
	pm.SetNodes(2)
	var onNode1 []FrameID
	for i := 0; i < limit/2; i++ {
		id, err := pm.AllocFrameOn(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = id
		id1, err := pm.AllocFrameOn(1)
		if err != nil {
			t.Fatal(err)
		}
		onNode1 = append(onNode1, id1)
	}
	// Pool fully grown; free only node-1 frames.
	for _, id := range onNode1 {
		pm.FreeFrame(id)
	}
	for i := 0; i < len(onNode1); i++ {
		id, err := pm.AllocFrameOn(0) // node 0 preferred, must spill to node 1
		if err != nil {
			t.Fatalf("spill alloc %d failed with %d free frames: %v", i, limit-pm.FramesInUse(), err)
		}
		if got := pm.NodeOf(id); got != 1 {
			t.Errorf("spilled frame %d tagged node %d, want 1 (placement stays remote)", id, got)
		}
	}
	if _, err := pm.AllocFrameOn(0); !errors.Is(err, ErrNoMemory) {
		t.Errorf("exhausted pool should report ErrNoMemory, got %v", err)
	}
}

func TestAllocFramesOnRollsBackAcrossNodes(t *testing.T) {
	pm := NewPhysMem(4 * PageSize)
	pm.SetNodes(2)
	if _, err := pm.AllocFramesOn(1, 8); err == nil {
		t.Fatal("AllocFramesOn beyond limit succeeded")
	}
	if pm.FramesInUse() != 0 {
		t.Errorf("partial allocation leaked %d frames", pm.FramesInUse())
	}
	ids, err := pm.AllocFramesOn(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if pm.NodeOf(id) != 1 {
			t.Errorf("frame %d on node %d, want 1", id, pm.NodeOf(id))
		}
	}
}

func TestUsageSnapshot(t *testing.T) {
	pm := NewPhysMem(32 * PageSize)
	pm.SetNodes(2)
	if err := pm.SetWatermarks(Watermarks{Min: 2, Low: 4, High: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocFramesOn(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocFramesOn(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := pm.Reserve(5); err != nil {
		t.Fatal(err)
	}
	u := pm.Usage()
	if u.Limit != 32 || u.InUse != 5 || u.Reserved != 5 || u.Available != 22 {
		t.Errorf("Usage = %+v", u)
	}
	if u.Pressure != PressureNone {
		t.Errorf("Pressure = %v, want none", u.Pressure)
	}
	if len(u.Nodes) != 2 || u.Nodes[0].Grown != 3 || u.Nodes[1].Grown != 2 {
		t.Errorf("per-node usage = %+v", u.Nodes)
	}
}

func TestDefaultWatermarksScale(t *testing.T) {
	for _, frames := range []int{16, 64, 1024, 1 << 20} {
		w := DefaultWatermarks(frames)
		if w.Min < 4 || w.Min > w.Low || w.Low > w.High {
			t.Errorf("DefaultWatermarks(%d) = %+v not ordered", frames, w)
		}
	}
	if w := DefaultWatermarks(1024); w.Min != 16 {
		t.Errorf("DefaultWatermarks(1024).Min = %d, want 16", w.Min)
	}
}

func TestPressureString(t *testing.T) {
	if PressureNone.String() != "none" || PressureLow.String() != "low" || PressureMin.String() != "min" {
		t.Error("Pressure.String mismatch")
	}
	if !strings.Contains(Pressure(9).String(), "9") {
		t.Error("unknown pressure should include its value")
	}
}
