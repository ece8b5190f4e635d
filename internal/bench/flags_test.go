package bench

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// parseFlags registers the shared flags on a fresh FlagSet, parses args
// and validates them.
func parseFlags(t *testing.T, args ...string) (*Flags, Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	o, err := f.Options()
	return f, o, err
}

func TestFlagsRejectBadValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown machine", []string{"-machine", "pdp11"}, "unknown cost model"},
		{"bad numa policy", []string{"-numa-policy", "sideways"}, "unknown NUMA policy"},
		{"bad bind node", []string{"-numa-policy", "bind:-1"}, "bad bind node"},
		{"NaN fault rate", []string{"-fault-rate", "NaN"}, "outside [0, 1]"},
		{"fault rate above 1", []string{"-fault-rate", "1.5"}, "outside [0, 1]"},
		{"unknown fault site", []string{"-fault-plan", "disk=0.1"}, "unknown site"},
		{"bad fault entry rate", []string{"-fault-plan", "swapva=2"}, "rate must be a number"},
		{"negative far latency", []string{"-swap-tier", "64", "-far-lat", "-1"}, "negative far latency"},
		{"negative tier size", []string{"-zpool", "-4"}, "negative tier size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseFlags(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestFlagsOptions(t *testing.T) {
	_, o, err := parseFlags(t, "-machine", "i5-7600", "-gcworkers", "2", "-seed", "9",
		"-parallel", "3", "-sockets", "2", "-numa-policy", "bind:1",
		"-fault-plan", "swapva=0.1", "-fault-rate", "0.01", "-fault-seed", "5",
		"-swap-tier", "64", "-zpool", "4", "-far-lat", "20000")
	if err != nil {
		t.Fatal(err)
	}
	if o.Cost == nil || o.Cost.Name != "CoreI5-7600" || o.GCWorkers != 2 || o.Seed != 9 ||
		o.Parallel != 3 || o.Sockets != 2 || o.NUMAPolicy != topology.PolicyBind || o.NUMABind != 1 ||
		o.FaultPlan != "swapva=0.1" || o.FaultRate != 0.01 || o.FaultSeed != 5 {
		t.Errorf("planes not carried: %+v", o)
	}
	if o.Swap.FarBytes != 64<<20 || o.Swap.ZpoolBytes != 4<<20 || o.Swap.FarLatNs != 20000 {
		t.Errorf("swap knobs not carried: %+v", o.Swap)
	}
	if o.OnMachine != nil {
		t.Error("OnMachine installed without -trace or -metrics")
	}

	// The defaults leave every plane off and the cost model to each
	// experiment.
	_, d, err := parseFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cost != nil || d.GCWorkers != 4 || d.Seed != 42 || d.Sockets != 1 ||
		d.FaultPlan != "" || d.FaultRate != 0 || d.Swap.Enabled() {
		t.Errorf("defaults: %+v", d)
	}
}

// TestFlagsFaultSeedDefault: -fault-seed 0 means the workload seed, so
// -fault-seed 0 -seed 9 replays exactly the decisions of -fault-seed 9.
func TestFlagsFaultSeedDefault(t *testing.T) {
	replay := func(args ...string) []bool {
		_, o, err := parseFlags(t, append([]string{"-fault-rate", "0.3"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := o.NewMachine(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		return decisions(m)
	}
	byWorkloadSeed := replay("-fault-seed", "0", "-seed", "9")
	if !reflect.DeepEqual(byWorkloadSeed, replay("-fault-seed", "9")) {
		t.Error("-fault-seed 0 -seed 9 does not replay -fault-seed 9")
	}
	if reflect.DeepEqual(byWorkloadSeed, replay("-fault-seed", "10")) {
		t.Error("fault seeds 9 and 10 replay the same decisions")
	}
}

// TestFlagsWriteOutputs: -trace and -metrics trace every machine built
// through the run's Options and write one combined file each.
func TestFlagsWriteOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath, promPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom")
	f, o, err := parseFlags(t, "-trace", tracePath, "-metrics", promPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := o.NewMachine(unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tracer() == nil {
			t.Fatalf("machine %d built untraced", i)
		}
	}
	if err := f.WriteOutputs(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{tracePath, promPath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}
