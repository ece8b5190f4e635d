package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestSmoke runs every workload at tinySize, untraced and traced, and
// checks that each named metric is printed with its unit, that no unit
// fails, and that the traced and untraced passes leave identical
// simulated fingerprints.
func TestSmoke(t *testing.T) {
	for _, w := range registry {
		t.Run(w.name, func(t *testing.T) {
			var prints [2][]unitPrint
			for i, traced := range []bool{false, true} {
				rep, err := measure(w, tinySize, 42, time.Millisecond, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d unit runs failed: %v", traced, rep.Failed, rep.Attempted, rep.Failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				checkPrinted(t, rep, want)
				prints[i] = rep.Fingerprints
			}
			if len(prints[0]) == 0 || !reflect.DeepEqual(prints[0], prints[1]) {
				t.Fatalf("fingerprints differ between runs:\n%v\n%v", prints[0], prints[1])
			}
		})
	}
}

func checkPrinted(t *testing.T, rep *report, want []metric) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var result struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !result.Correct || result.Attempted != rep.Attempted || len(result.Metrics) != len(want) {
		t.Fatalf("result %+v, want %d metrics", result, len(want))
	}
	text := buf.String()
	for _, m := range want {
		got, ok := result.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
		if !strings.Contains(text, fmt.Sprintf("\n%s %.6g %s\n", m.Name, got.Value, m.Unit)) {
			t.Errorf("metric %s is not printed by name and unit", m.Name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the code.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string
		Unit string
		Why  string
	}
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, code has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d] = %+v, code has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(registry) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(registry))
	}
	for i, w := range registry {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, code has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A syscall [0,10) holding a shootdown [2,5), on one context, next to
	// a bus transfer [4,8) on another.
	events := []trace.Event{
		{TID: 1, Kind: trace.KindShootdown, TS: 2, Dur: 3},
		{TID: 1, Kind: trace.KindSyscall, TS: 0, Dur: 10},
		{TID: 2, Kind: trace.KindBus, TS: 4, Dur: 4},
	}
	got := selfTimes(events)
	want := map[string]float64{"syscall": 7, "shootdown": 3, "bus": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestPauseTail(t *testing.T) {
	var ps []sim.Time
	for i := 1; i <= 40; i++ {
		ps = append(ps, sim.Time(i)*sim.Microsecond)
	}
	pt := pauseStats(ps)
	// Ten pauses (31..40 us) lie beyond the tail, at the 75th percentile.
	if pt.P50Us != 20 || pt.TailUs != 30 || pt.Percentile != 75 || pt.Samples != 40 {
		t.Fatalf("pauseStats = %+v", pt)
	}
	if pt := pauseStats(ps[:5]); pt.TailUs != 5 || pt.Percentile != 100 {
		t.Fatalf("pauseStats of five = %+v", pt)
	}
}
