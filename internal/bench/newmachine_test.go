package bench

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/jvm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/swaptier"
	"repro/internal/topology"
	"repro/internal/trace"
)

// decisions rolls 64 fault decisions per site on m's injector: the
// replayable part of a machine's fault plane.
func decisions(m *machine.Machine) []bool {
	inj := m.FaultInjector()
	var out []bool
	for s := 0; s < trace.NumFaultSites; s++ {
		for i := 0; i < 64; i++ {
			out = append(out, inj.Fire(fault.Site(s)))
		}
	}
	return out
}

func TestNewMachine(t *testing.T) {
	var seen []*machine.Machine
	opt := Options{
		Cost:       sim.CoreI5_7600(),
		Sockets:    2,
		NUMAPolicy: topology.PolicyBind,
		NUMABind:   1,
		FaultPlan:  "all=0.3",
		FaultSeed:  7,
		Exact:      true,
		OnMachine:  func(m *machine.Machine) { seen = append(seen, m) },
	}

	t.Run("shape kept, planes overlaid", func(t *testing.T) {
		wm := mem.Watermarks{Min: 8, Low: 16, High: 32}
		m, err := opt.NewMachine(machine.Config{
			PhysBytes:  4096 << mem.PageShift,
			Watermarks: wm,
			Swap:       swaptier.Config{ZpoolBytes: 4 << 20, FarBytes: 64 << 20},
			// Plane fields in the shape are overridden by opt.
			Cost:    sim.XeonGold6240(),
			Sockets: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if u := m.Phys.Usage(); u.Limit != 4096 || u.Watermarks != wm {
			t.Errorf("shape lost: limit %d watermarks %+v", u.Limit, u.Watermarks)
		}
		if !m.SwapEnabled() {
			t.Error("shape's swap tier not armed")
		}
		if m.Cost != opt.Cost {
			t.Errorf("cost %s, want opt's %s", m.Cost.Name, opt.Cost.Name)
		}
		if m.Nodes() != 2 {
			t.Errorf("%d nodes, want opt's 2", m.Nodes())
		}
		if p := m.NewAddressSpace().Placement(); p.Policy != topology.PolicyBind || p.Bind != 1 {
			t.Errorf("placement %+v, want bind:1", p)
		}
		if !m.FaultInjector().Active() {
			t.Error("fault plan not armed")
		}
		if m.NewContext(0).Env.Batch {
			t.Error("Exact set but the machine batches")
		}
	})

	t.Run("fresh injector per machine", func(t *testing.T) {
		a, err := opt.NewMachine(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opt.NewMachine(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if a.FaultInjector() == b.FaultInjector() {
			t.Fatal("two machines share one injector")
		}
		if !reflect.DeepEqual(decisions(a), decisions(b)) {
			t.Error("two machines of one run replay different fault decisions")
		}
	})

	t.Run("OnMachine sees every machine", func(t *testing.T) {
		seen = nil
		for i := 0; i < 3; i++ {
			m, err := opt.NewMachine(unbounded)
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != i+1 || seen[i] != m {
				t.Fatalf("hook saw %d machines after building %d", len(seen), i+1)
			}
		}
	})

	// oom1 builds its own watermarked machine; it must still carry the
	// run's planes.
	t.Run("oom1 point", func(t *testing.T) {
		var got []*machine.Machine
		o := Options{Sockets: 2, FaultPlan: "all=0.01", FaultSeed: 7,
			OnMachine: func(m *machine.Machine) { got = append(got, m) }}
		if _, err := oomOne(o, jvm.CollectorSVAGC, 0.80); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("hook saw %d machines, want 1", len(got))
		}
		if m := got[0]; m.Nodes() != 2 || !m.FaultInjector().Active() {
			t.Errorf("oom1 machine: %d nodes, injector active %v; want 2 nodes, active",
				m.Nodes(), m.FaultInjector().Active())
		}
	})
}
