// Command perfbench measures the SVAGC simulator end to end and layer by
// layer, on the host clock and on the simulated clock, over one of four
// workloads (see README.md). It prints every metric by name and unit and
// ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, from untraced passes;
// with -trace 1 they are the per-layer set, from one untraced and one
// traced pass plus a host ladder. A full record, host spans included,
// is written under -out. The exit code is non-zero when a unit fails or
// an output check does not hold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: large-objects, small-objects, smr-cluster or far-memory")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 20, "host seconds of timed passes (at least three passes run)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics")
	out := fs.String("out", "", "directory for the run record (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	// The simulator runs on one goroutine. A single P keeps Go's own
	// collector on the simulator's core instead of racing it on another.
	runtime.GOMAXPROCS(1)
	rep, err := measure(w, fullSize, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// header states the host facts and the measuring conditions.
type header struct {
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Notes      []string `json:"notes"`
}

func hostHeader() header {
	h := header{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (built outside a git checkout)",
		Notes: []string{
			"every unit builds a fresh machine, so simulated caches and TLBs start empty on every run",
			"one host warm-up pass runs before the timed passes and is excluded from timing",
			"simulated metrics repeat exactly for a fixed seed; host metrics are medians over passes",
			"the simulator is otherwise unvalidated against hardware; paper numbers are references, not gates",
		},
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " (modified)"
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// passSummary is one pass's host figures.
type passSummary struct {
	Traced  bool      `json:"traced"`
	RunS    float64   `json:"run_s"`
	UnitS   []float64 `json:"unit_run_s"`
	SetupS  float64   `json:"setup_s"`
	AllocMB float64   `json:"host_alloc_mb"`
	PeakMB  float64   `json:"host_peak_mb"`
}

type unitPrint struct {
	Unit        string `json:"unit"`
	Fingerprint string `json:"fingerprint"`
}

// report is the run record.
type report struct {
	Header       header             `json:"header"`
	Workload     string             `json:"workload"`
	Why          string             `json:"why"`
	Seed         int64              `json:"seed"`
	Traced       bool               `json:"traced"`
	WarmUp       passSummary        `json:"warm_up"`
	Passes       []passSummary      `json:"passes"`
	SetupSamples []float64          `json:"setup_samples_s"`
	Sim          simSummary         `json:"simulated"`
	Fingerprints []unitPrint        `json:"fingerprints"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	Metrics      []metric           `json:"metrics"`
	Extra        []metric           `json:"workload_metrics,omitempty"`
	SelfTimeNs   map[string]float64 `json:"sim_self_time_ns_by_kind,omitempty"`
	TraceDropped uint64             `json:"trace_events_dropped"`
	Spans        []span             `json:"host_spans,omitempty"`
}

const (
	minPasses       = 3
	maxSetupSamples = 2000
)

// measure runs one workload: a warm-up pass that is the reference for
// every output check, then either timed untraced passes (end-to-end) or
// one untraced and one traced pass plus the host ladder (per-layer).
func measure(w *workload, sz size, seed int64, budget time.Duration, perLayer bool) (*report, error) {
	units := w.units(sz)
	rep := &report{Header: hostHeader(), Workload: w.name, Why: w.why, Seed: seed, Traced: perLayer}
	ref := runPass(units, seed, w.simFromTrace && !perLayer)
	rep.WarmUp = summaryOf(ref)
	rep.check(ref, nil)
	for _, o := range ref.outcomes {
		if o != nil {
			rep.Fingerprints = append(rep.Fingerprints, unitPrint{o.unit.name(), fmt.Sprintf("%016x", o.print)})
		}
	}

	if perLayer {
		return rep, rep.layers(w, units, seed, ref)
	}

	// Set-up takes milliseconds on some workloads, so beside its own
	// sample in each pass it is repeated on its own after each pass, for
	// a twentieth of the pass's time. The samples then span the run as
	// the passes do.
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start)+time.Since(start)/time.Duration(n) <= budget; n++ {
		t0 := time.Now()
		pr := runPass(units, seed, false)
		rep.check(pr, ref)
		rep.Passes = append(rep.Passes, summaryOf(pr))
		rep.SetupSamples = append(rep.SetupSamples, pr.setupS)
		for t1 := time.Now(); len(rep.SetupSamples) < maxSetupSamples &&
			(len(rep.SetupSamples) < 2*len(rep.Passes) || time.Since(t1) < t1.Sub(t0)/20); {
			s, err := setupOnly(units, seed)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			rep.SetupSamples = append(rep.SetupSamples, s)
		}
	}

	rep.Sim = summarize(ref)
	col := func(f func(p passSummary) float64) []float64 {
		xs := make([]float64, len(rep.Passes))
		for i, p := range rep.Passes {
			xs[i] = f(p)
		}
		return xs
	}
	// On a shared host a unit mostly runs at one speed and, in spells
	// when the neighbours leave the core and its caches alone, faster.
	// A unit's 90th percentile over the passes is the usual speed; its
	// median and mean move with the number of quiet spells a run happens
	// to catch.
	runS := 0.0
	for u := range units {
		runS += quantile(col(func(p passSummary) float64 { return p.UnitS[u] }), 0.9)
	}
	vals := map[string]float64{
		"run_s":             runS,
		"setup_s":           median(rep.SetupSamples),
		"sim_rate":          rep.Sim.AppMs * 1e3 / runS,
		"host_alloc_mb":     median(col(func(p passSummary) float64 { return p.AllocMB })),
		"host_peak_mb":      median(col(func(p passSummary) float64 { return p.PeakMB })),
		"sim_app_ms":        rep.Sim.AppMs,
		"sim_gc_ms":         rep.Sim.GCMs,
		"sim_pause_p50_us":  rep.Sim.Pauses.P50Us,
		"sim_pause_tail_us": rep.Sim.Pauses.TailUs,
	}
	var err error
	if rep.Metrics, err = fill(endToEnd, vals); err != nil {
		return nil, err
	}
	rep.Extra = rep.workloadMetrics(rep.Sim)
	return rep, nil
}

// layers fills the per-layer metrics: counters from an untraced pass
// (they name the charging path the end-to-end passes take), simulated
// self times and host spans from a traced pass, and the host ladder on
// the workload's machine shape.
func (rep *report) layers(w *workload, units []unit, seed int64, ref *passResult) error {
	un := runPass(units, seed, false)
	rep.check(un, ref)
	tr := runPass(units, seed, true)
	rep.check(tr, ref)
	rep.Passes = []passSummary{summaryOf(un), summaryOf(tr)}
	rep.Spans = tr.spans.spans
	rep.SelfTimeNs = tr.selfNs
	rep.TraceDropped = tr.dropped

	vals := layerCounts(un, tr)
	lad, err := ladder(w.shape())
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for k, v := range lad {
		vals[k] = v
	}
	self := func(kind string) float64 { return tr.selfNs[kind] }
	vals["kernel.syscall_sim_us"] = self("syscall") / 1e3
	vals["machine.shootdown_sim_us"] = self("shootdown") / 1e3
	vals["machine.bus_sim_us"] = self("bus") / 1e3
	vals["swaptier.swap_in_sim_ms"] = self("swap_in") / 1e6
	vals["swaptier.reclaim_sim_ms"] = (self("reclaim") + self("swap_out")) / 1e6
	vals["workloads.run_s"] = tr.spans.total("workloads.Spec.Run") + tr.spans.total("smr.Run")
	vals["machine.new_s"] = tr.spans.total("machine.New")
	vals["jvm.new_s"] = tr.spans.total("jvm.New")
	vals["gc.collect_s"] = tr.spans.total("JVM.CollectNow")
	vals["bench.trace_overhead_frac"] = tr.runS/un.runS - 1
	rep.Sim = summarize(tr)
	for _, m := range rep.workloadMetrics(rep.Sim) {
		vals[m.Name] = m.Value
	}
	for _, name := range []string{"swapva_gc_speedup", "commit_p99_us", "failovers"} {
		if _, ok := vals[name]; !ok {
			vals[name] = 0
		}
	}
	rep.Metrics, err = fill(perLayer, vals)
	return err
}

// workloadMetrics returns the end-to-end metrics that exist on this
// workload only, and failed_frac.
func (rep *report) workloadMetrics(s simSummary) []metric {
	var ms []metric
	if s.Speedup > 0 {
		ms = append(ms, metric{Name: "swapva_gc_speedup", Value: s.Speedup, Unit: "x"})
	}
	if s.CommitP99 > 0 {
		ms = append(ms,
			metric{Name: "commit_p99_us", Value: s.CommitP99, Unit: "sim_us"},
			metric{Name: "failovers", Value: s.Failovers, Unit: "count"})
	}
	return append(ms, metric{Name: "failed_frac", Value: float64(rep.Failed) / float64(rep.Attempted), Unit: "ratio"})
}

func summaryOf(pr *passResult) passSummary {
	return passSummary{Traced: pr.traced, RunS: pr.runS, UnitS: pr.unitS, SetupS: pr.setupS, AllocMB: pr.allocMB, PeakMB: pr.peakMB}
}

// check counts a pass's unit runs and fails those that returned an error
// (the workloads' self-checks among them) or whose simulated fingerprint
// differs from the reference pass's.
func (rep *report) check(pr, ref *passResult) {
	rep.Attempted += len(pr.outcomes)
	for _, f := range pr.failures {
		rep.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", f.unit, f.err))
	}
	if ref == nil {
		return
	}
	for i, o := range pr.outcomes {
		r := ref.outcomes[i]
		if o == nil || r == nil || o.print == r.print {
			continue
		}
		rep.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf(
			"%s: simulated fingerprint %016x differs from the reference pass's %016x (traced=%v)",
			o.unit.name(), o.print, r.print, pr.traced))
	}
}

// print writes every metric as "name value unit", then the JSON line.
func (rep *report) print(w io.Writer) error {
	kind := "end-to-end, untraced"
	if rep.Traced {
		kind = "per-layer, traced"
	}
	h := rep.Header
	fmt.Fprintf(w, "# perfbench %s seed=%d (%s), %d passes after a warm-up\n", rep.Workload, rep.Seed, kind, len(rep.Passes))
	fmt.Fprintf(w, "# host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	pt := rep.Sim.Pauses
	fmt.Fprintf(w, "# pauses: %d, tail = p%.2f%s\n", pt.Samples, pt.Percentile, strings.TrimSuffix(" "+pt.Note, " "))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, m.Value, m.Unit)
		vals[m.Name] = value{m.Value, m.Unit}
	}
	if !rep.Traced {
		for _, m := range rep.Extra {
			fmt.Fprintf(w, "%s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, s := range rep.Sim.PerSpec {
		ref := s.PaperReduction
		if ref == "" {
			ref = "no paper figure recorded"
		}
		fmt.Fprintf(w, "# fig11 %-14s svagc-memmove %.3f ms, svagc %.3f ms: speedup %.2fx, reduction %.1f%% [reference: %s]\n",
			s.Spec, s.MemmoveGCMs, s.SwapVAGCMs, s.Speedup, s.Reduction, ref)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// write stores the record as <out>/<workload>-seed<n>-trace<0|1>.json.
func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rep.Traced {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, t))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
