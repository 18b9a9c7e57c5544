// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks the simulated outputs, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics named in BENCHMARK.json.
// With --trace 1 it runs the workload twice, untraced and traced (in an order
// the seed alternates), each for half the time. It prints the per-layer metrics, derived from the spans
// the traced half recorded around calls into each layer's public functions,
// and writes those spans as Chrome trace-event JSON under --dir. README.md
// in this directory defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported quantity: its unit and whether it belongs to the
// end-to-end set (--trace 0) or the per-layer set (--trace 1).
type metric struct {
	name     string
	unit     string
	endToEnd bool
}

// allMetrics lists every metric the benchmark reports, in report order. It
// must agree with BENCHMARK.json; the self-test checks that it does.
var allMetrics = []metric{
	{"setup_s", "s", true},
	{"sim_winst_per_s", "1/s", true},
	{"peak_rss_mb", "MB", true},
	{"ok_frac", "ratio", true},
	{"serve_p50_ms", "ms", true},
	{"serve_p99_ms", "ms", true},
	{"serve_req_per_s", "1/s", true},

	{"fail_frac", "ratio", false},
	{"trace.overhead_pct", "%", false},
	{"workloads.build_ms", "ms", false},
	{"workloads.builds", "count", false},
	{"harness.budget_wait_ms", "ms", false},
	{"harness.core_util", "ratio", false},
	{"harness.pool_overhead_ms", "ms", false},
	{"harness.allocs_per_run", "count", false},
	{"harness.alloc_mb_per_run", "MB", false},
	{"harness.retained_mb", "MB", false},
	{"sim.dropped_engine_mb", "MB", false},
	{"sim.drain_share", "ratio", false},
	{"sim.route_share", "ratio", false},
	{"sim.partition_share", "ratio", false},
	{"sim.shard_share", "ratio", false},
	{"sim.merge_share", "ratio", false},
	{"sim.barriers_per_kcycle", "1/kcycle", false},
	{"sim.ns_per_cycle", "ns", false},
	{"sim.ticked_frac", "ratio", false},
	{"sim.cycles", "count", false},
	{"sim.wall_winst_per_s", "1/s", false},
	{"sim.cores_used", "ratio", false},
	{"service.hit_p50_ms", "ms", false},
	{"service.overhead_p50_ms", "ms", false},
	{"service.sim_p50_ms", "ms", false},
	{"service.refused", "count", false},
	{"cluster.mem_hit_frac", "ratio", false},
	{"cluster.disk_hit_frac", "ratio", false},
	{"cluster.miss_frac", "ratio", false},
	{"cluster.get_mem_us", "us", false},
	{"cluster.get_disk_us", "us", false},
	{"cluster.put_us", "us", false},
	{"core.coverage", "ratio", false},
	{"core.coverage_paper_err_pp", "pp", false},
	{"core.accuracy", "ratio", false},
	{"core.accuracy_paper_err_pp", "pp", false},
	{"core.ipc_gain", "ratio", false},
	{"core.ipc_gain_paper_err_pp", "pp", false},
	{"cache.l1_hit_rate", "ratio", false},
	{"cache.l1_hit_rate_paper_err_pp", "pp", false},
	{"cache.resfail_frac", "ratio", false},
	{"cache.resfail_frac_paper_err_pp", "pp", false},
	{"icnt.bw_util", "ratio", false},
	{"icnt.bw_util_paper_err_pp", "pp", false},
	{"sim.mem_stall_frac", "ratio", false},
	{"sim.mem_stall_frac_paper_err_pp", "pp", false},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	procs   int    // concurrent runs, workers, clients and connections
	dir     string // scratch space: disk-tier directories and trace output
	size    sizes
	// corrupt falsifies one simulated result before it is checked; the
	// self-test sets it to prove that the checks count a wrong output.
	corrupt bool
}

// report is what a workload hands back: operation counts and metric values.
type report struct {
	attempted int
	failed    int // failed, refused or incorrect operations
	incorrect int // operations whose output failed a correctness check
	values    map[string]float64
	info      map[string]any
}

// output is the final line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper-grid, wide-gpu or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "scratch directory for disk-tier files and traces")
	flag.Parse()

	rc := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		procs:   runtime.GOMAXPROCS(0),
		dir:     *dir,
		size:    fullSizes(),
	}
	rep, err := run(*workload, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info, err := json.Marshal(map[string]any{"info": rep.info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	line, err := json.Marshal(rep.output(rc.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workload is one named traffic mix. setup builds everything the measured
// passes need and is timed by the caller (it may be called several times;
// each call replaces the previous set-up). pass runs the measured loop for
// about the given duration, recording spans into tr when tr is non-nil.
// layers derives the per-layer metrics from the traced pass.
type workload interface {
	setup(tr *tracer) error
	pass(budget time.Duration, tr *tracer) (*passResult, error)
	layers(tr *tracer, traced *passResult, m map[string]float64) error
	close()
}

// passResult is one measured pass.
type passResult struct {
	attempted int
	failed    int
	incorrect int
	windows   []window
	peakRSSMB float64 // the pass's peak resident set size
	info      map[string]any
	// pooled reads latency percentiles from all the pass's samples at once
	// rather than as the median over windows of each window's percentile:
	// serve-mixed's windows are slices of one request stream, and only the
	// whole pass has ten samples beyond its 99th percentile.
	pooled bool
}

// window is one stretch of a pass that throughput and latency are measured
// over: a grid repetition, a wide-gpu round, or a fixed slice of the
// serve-mixed loop. Metrics are reported as the median over windows, so a
// stretch slowed by other load on the host moves them less. Times are wall
// time, except on wide-gpu, where they are process CPU time (see wide).
type window struct {
	secs  float64
	ops   int       // operations completed
	winst int64     // simulated warp instructions completed
	latMS []float64 // latencies of the single operations completed
}

// rate returns the median over windows of count(w) per second.
func (p *passResult) rate(count func(window) float64) float64 {
	return p.perWindow(func(w window) float64 { return count(w) / w.secs })
}

// latency returns the median over windows of each window's q-quantile
// latency, or the q-quantile of all samples when the pass is pooled.
func (p *passResult) latency(q float64) float64 {
	if p.pooled {
		var all []float64
		for _, w := range p.windows {
			all = append(all, w.latMS...)
		}
		return quantile(all, q)
	}
	return p.perWindow(func(w window) float64 { return quantile(w.latMS, q) })
}

func (p *passResult) perWindow(f func(window) float64) float64 {
	var vs []float64
	for _, w := range p.windows {
		vs = append(vs, f(w))
	}
	return median(vs)
}

func winstOf(w window) float64 { return float64(w.winst) }
func opsOf(w window) float64   { return float64(w.ops) }

func newWorkload(name string, rc runConfig) (workload, error) {
	switch name {
	case "paper-grid":
		return newGrid(rc), nil
	case "wide-gpu":
		return newWide(rc), nil
	case "serve-mixed":
		return newServe(rc), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (known: paper-grid, wide-gpu, serve-mixed)", name)
	}
}

// run sets the workload up several times, reports the median set-up time,
// and measures it: one untraced pass for the end-to-end metrics, or an
// untraced and a traced half-length pass for the per-layer metrics.
func run(name string, rc runConfig) (*report, error) {
	if rc.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(name, rc)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	// Set-up is timed in process CPU seconds: they count all the work
	// moved into set-up, and unlike wall time they leave out the time the
	// hypervisor takes the vCPUs away, which on a shared host changed a
	// paper-grid set-up by 2x between runs of the same code.
	var setups []float64
	for total := 0.0; len(setups) < rc.size.setupReps ||
		len(setups) < rc.size.setupMax && total < rc.size.setupSecs; {
		t0 := cpuSeconds()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSeconds()-t0)
		total += setups[len(setups)-1]
	}
	rep := &report{values: map[string]float64{}, info: map[string]any{
		"workload": name, "seed": rc.seed, "procs": rc.procs, "setup_s_each": setups,
	}}
	rep.values["setup_s"] = median(setups)
	// Return the discarded set-ups' garbage to the OS, so the measured
	// pass's resident set starts from what the last set-up keeps.
	debug.FreeOSMemory()

	budget := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		p, err := w.pass(budget, nil)
		if err != nil {
			return nil, err
		}
		rep.add(p)
		rep.endToEnd(p)
		return rep, nil
	}

	// The untraced and traced halves run in an order the seed alternates, so
	// that trace.overhead_pct, averaged over seeds, is not the cost of
	// running second on a heap the first half grew.
	startLive := liveHeapMB()
	var plain, traced *passResult
	untraced := func() (err error) { plain, err = w.pass(budget/2, nil); return err }
	withSpans := func() error {
		return tracePass(tr, func() (err error) { traced, err = w.pass(budget/2, tr); return err })
	}
	order := []func() error{untraced, withSpans}
	if rc.seed%2 == 0 {
		order[0], order[1] = order[1], order[0]
	}
	for _, f := range order {
		if err := f(); err != nil {
			return nil, err
		}
	}
	rep.add(plain)
	rep.values["harness.retained_mb"] = liveHeapMB() - startLive
	// Tracing overhead: how much slower the traced pass ran than the
	// untraced one, by the workload's own throughput.
	count := winstOf
	if name == "serve-mixed" {
		count = opsOf
	}
	rep.values["trace.overhead_pct"] = 100 * (plain.rate(count)/traced.rate(count) - 1)
	rep.info["traced_first"] = rc.seed%2 == 0
	if err := w.layers(tr, traced, rep.values); err != nil {
		return nil, err
	}
	rep.add(traced)
	rep.values["sim.dropped_engine_mb"] = droppedEngineMB(rc.size.leakEngines)
	if rep.attempted > 0 {
		rep.values["fail_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	path := filepath.Join(rc.dir, fmt.Sprintf("trace-%s-%d.json", name, rc.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	rep.info["trace_file"] = path
	rep.info["self_ms"] = tr.selfTimes()
	return rep, nil
}

// add folds one pass's counts and info into the report.
func (r *report) add(p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.incorrect += p.incorrect
	for k, v := range p.info {
		r.info[k] = v
	}
}

// endToEnd fills the end-to-end metrics from an untraced pass.
func (r *report) endToEnd(p *passResult) {
	r.values["sim_winst_per_s"] = p.rate(winstOf)
	r.values["peak_rss_mb"] = p.peakRSSMB
	r.values["ok_frac"] = 1 - float64(p.failed)/float64(max(p.attempted, 1))
	r.values["serve_p50_ms"] = p.latency(0.50)
	r.values["serve_p99_ms"] = p.latency(0.99)
	r.values["serve_req_per_s"] = p.rate(opsOf)
	var samples []int
	var secs []float64
	for _, w := range p.windows {
		samples = append(samples, len(w.latMS))
		secs = append(secs, w.secs)
	}
	r.info["latency_samples"] = samples
	r.info["window_s"] = secs
}

// output selects the metric set for the trace mode. Per-layer metrics a
// workload does not exercise are reported as 0 (README.md lists which
// workload each one is read on).
func (r *report) output(trace bool) output {
	out := output{
		Correct:   r.incorrect == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range allMetrics {
		if m.endToEnd == trace {
			continue
		}
		out.Metrics[m.name] = metricValue{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
