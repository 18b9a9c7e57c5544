package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/profiling"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// sizes scales every workload; fullSizes is the benchmark, tinySizes the
// self-test.
type sizes struct {
	gridScale   workloads.Scale
	wideScale   workloads.Scale
	serveScale  workloads.Scale
	setupReps   int     // set-ups per run, at least
	setupSecs   float64 // more set-ups, up to setupMax, while they total less than this
	setupMax    int
	replaySims  int // serve-mixed fresh simulations replayed on a standalone pool
	leakEngines int
}

func fullSizes() sizes {
	return sizes{
		gridScale:   workloads.DefaultScale(),
		wideScale:   workloads.Scale{CTAs: 320, WarpsPerCTA: 8, Iters: 4}, // 4 CTAs on each of 80 SMs
		serveScale:  workloads.DefaultScale(),
		setupReps:   5,
		setupSecs:   2,
		setupMax:    15,
		replaySims:  12,
		leakEngines: 8,
	}
}

func tinySizes() sizes {
	return sizes{
		gridScale:   workloads.Tiny(),
		wideScale:   workloads.Tiny(),
		serveScale:  workloads.Tiny(),
		setupReps:   2,
		setupMax:    2,
		replaySims:  3,
		leakEngines: 2,
	}
}

// slotSpan is the name of the span covering the time a run holds its
// Budget slots (from grant to Release).
const slotSpan = "harness.Budget.slots"

// poolCall is one EnginePool.Run or RunApp call, handed the phase profile
// to fill (nil when untraced).
type poolCall func(*profiling.Phases) (*stats.Sim, error)

// budgetRun acquires slots from the budget, builds the run (the
// workloads.Store call named buildName, which returns the pool call), calls
// the engine pool, and releases the slots, recording one span per layer call
// under the operation op. It returns the time the slots were held. It
// mirrors harness.Runner's execute path, whose calls cannot be timed from
// outside the package; paper-grid uses it only in its traced half.
func budgetRun(ctx context.Context, tr *tracer, op int64, lane int, b *harness.Budget, want int,
	buildName string, build func() (poolCall, error)) (*stats.Sim, time.Duration, error) {
	t0 := time.Now()
	granted, err := b.Acquire(ctx, want)
	t1 := time.Now()
	tr.record(span{name: "harness.Budget.Acquire", parent: op, op: op, lane: lane, start: t0, end: t1,
		args: map[string]float64{"slots": float64(granted)}})
	if err != nil {
		return nil, 0, err
	}
	slots := tr.newID()
	st, err := func() (*stats.Sim, error) {
		defer b.Release(granted)
		tb := time.Now()
		run, err := build()
		if err != nil {
			return nil, err
		}
		tr.record(span{name: buildName, parent: slots, op: op, lane: lane, start: tb, end: time.Now()})
		return poolRun(tr, op, slots, lane, run)
	}()
	t2 := time.Now()
	tr.record(span{name: slotSpan, id: slots, parent: op, op: op, lane: lane, start: t1, end: t2,
		args: map[string]float64{"slots": float64(granted)}})
	return st, t2.Sub(t1), err
}

// poolRun times one EnginePool.Run or RunApp call. When tracing it hands
// the engine a fresh phase profile and records the call's span with the
// profile and the simulated cycles.
func poolRun(tr *tracer, op, parent int64, lane int, run poolCall) (*stats.Sim, error) {
	var ph *profiling.Phases
	if tr != nil {
		ph = new(profiling.Phases)
	}
	t0 := time.Now()
	st, err := run(ph)
	t1 := time.Now()
	if tr == nil || err != nil {
		return st, err
	}
	args := map[string]float64{
		"cycles":       float64(st.Cycles),
		"insts":        float64(st.Insts),
		"barriers":     float64(ph.Barriers()),
		"epoch_cycles": float64(ph.EpochCycles()),
		"phase_ns":     float64(ph.TotalNs()),
	}
	for p := profiling.Phase(0); p < profiling.NumPhases; p++ {
		args[p.String()] = float64(ph.Ns(p))
	}
	tr.record(span{name: "harness.EnginePool.Run", parent: parent, op: op, lane: lane, start: t0, end: t1, args: args})
	return st, nil
}

// runKernel and runApp adapt the pool's two entry points to poolRun.
func runKernel(pool *harness.EnginePool, k *trace.Kernel, opt sim.Options, tag string) poolCall {
	return func(ph *profiling.Phases) (*stats.Sim, error) {
		opt.PhaseProfile = ph
		r, err := pool.Run(k, opt, tag)
		if err != nil {
			return nil, err
		}
		return &r.Stats, nil
	}
}

func runApp(pool *harness.EnginePool, a *trace.App, opt sim.Options, tag string) poolCall {
	return func(ph *profiling.Phases) (*stats.Sim, error) {
		opt.PhaseProfile = ph
		r, err := pool.RunApp(a, opt, tag)
		if err != nil {
			return nil, err
		}
		return &r.Stats, nil
	}
}

// passSpan names the span covering a whole traced pass; its arguments
// carry the heap allocations made during the pass.
const passSpan = "perfbench.pass"

// tracePass runs f as a traced pass and records its span with the pass's
// heap allocations.
func tracePass(tr *tracer, f func() error) error {
	a0 := readAllocs()
	t0 := time.Now()
	err := f()
	a1 := readAllocs()
	tr.record(span{name: passSpan, start: t0, end: time.Now(), args: map[string]float64{
		"alloc_bytes": float64(a1.bytes - a0.bytes), "alloc_objects": float64(a1.objects - a0.objects)}})
	return err
}

// harnessLayers derives the harness and sim per-layer metrics from the
// Budget and EnginePool spans in tr; slots is the budget's capacity.
func harnessLayers(tr *tracer, slots int, m map[string]float64) {
	var waits []float64
	for _, s := range tr.named("harness.Budget.Acquire") {
		waits = append(waits, s.ms())
	}
	m["harness.budget_wait_ms"] = mean(waits)

	held := tr.named(slotSpan)
	var busy time.Duration
	var first, last time.Time
	for i, s := range held {
		busy += time.Duration(s.args["slots"] * float64(s.end.Sub(s.start)))
		if i == 0 || s.start.Before(first) {
			first = s.start
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	if wall := last.Sub(first); wall > 0 {
		m["harness.core_util"] = float64(busy) / (float64(slots) * float64(wall))
	}

	runs := tr.named("harness.EnginePool.Run")
	if len(runs) == 0 {
		return
	}
	var overhead []float64
	var cycles, epochCycles, barriers, wallNs, phaseNs float64
	var phase [profiling.NumPhases]float64
	for _, s := range runs {
		overhead = append(overhead, s.ms()-s.args["phase_ns"]/1e6)
		cycles += s.args["cycles"]
		epochCycles += s.args["epoch_cycles"]
		barriers += s.args["barriers"]
		wallNs += float64(s.end.Sub(s.start))
		phaseNs += s.args["phase_ns"]
		for p := profiling.Phase(0); p < profiling.NumPhases; p++ {
			phase[p] += s.args[p.String()]
		}
	}
	n := float64(len(runs))
	m["harness.pool_overhead_ms"] = mean(overhead)
	for _, p := range tr.named(passSpan) {
		m["harness.allocs_per_run"] = p.args["alloc_objects"] / n
		m["harness.alloc_mb_per_run"] = p.args["alloc_bytes"] / 1e6 / n
	}
	share := func(p profiling.Phase) float64 { return phase[p] / phaseNs }
	m["sim.drain_share"] = share(profiling.PhaseSerialDrain)
	m["sim.route_share"] = share(profiling.PhaseSerialRoute)
	m["sim.partition_share"] = share(profiling.PhaseMemPartitions)
	m["sim.shard_share"] = share(profiling.PhaseShards)
	m["sim.merge_share"] = share(profiling.PhaseMerge)
	m["sim.barriers_per_kcycle"] = 1000 * barriers / cycles
	m["sim.ns_per_cycle"] = wallNs / cycles
	m["sim.ticked_frac"] = epochCycles / cycles
	m["sim.cycles"] = cycles / n
}

// droppedEngineMB measures how much live heap each dropped engine leaves
// behind: it runs n fresh 4-SM × 64-warp engines once each on lps at the
// default scale, drops them, and compares the live heap after forced
// collections. A collectable engine leaves about nothing.
func droppedEngineMB(n int) float64 {
	k, err := workloads.Build("lps", workloads.DefaultScale())
	if err != nil || n <= 0 {
		return 0
	}
	before := liveHeapMB()
	for i := 0; i < n; i++ {
		if _, err := sim.NewEngine().Run(k, sim.Options{Config: config.Scaled(4, 64)}); err != nil {
			return 0
		}
	}
	after := liveHeapMB()
	runtime.KeepAlive(k) // the trace is live in both measurements
	return (after - before) / float64(n)
}

// allocs is a snapshot of the process's cumulative heap allocations.
type allocs struct{ bytes, objects uint64 }

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}

func readAllocs() allocs {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return allocs{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

// liveHeapMB returns the live heap after forced collections. Two cycles let
// finalizers queued by the first run before the second measures.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuSeconds returns the process's user plus system CPU time. The kernel
// leaves out the time the hypervisor takes its vCPUs away (steal), so on a
// shared host it follows the work done rather than the share of the host
// the process was given.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// sampleRSS samples the resident set size every 20 ms until the returned
// function is called; that function returns the largest sample in MB.
func sampleRSS() func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		peak := rssMB()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, rssMB())
			case <-stop:
				done <- max(peak, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// rssMB returns the process's resident set size (VmRSS) in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// paperRef is one model metric with the paper's reference value, from
// EXPERIMENTS.md's Paper column. The paper's figures come from Accel-Sim on
// a V100 model; nothing here is validated against hardware.
type paperRef struct {
	name  string
	paper float64
	value func(base, snake *stats.Sim) float64
}

var paperRefs = []paperRef{
	{"core.coverage", 0.80, func(_, s *stats.Sim) float64 { return s.Coverage() }},                 // Fig. 16
	{"core.accuracy", 0.75, func(_, s *stats.Sim) float64 { return s.Accuracy() }},                 // Fig. 17
	{"core.ipc_gain", 0.17, func(b, s *stats.Sim) float64 { return s.IPC()/b.IPC() - 1 }},          // Fig. 18
	{"cache.l1_hit_rate", 0.79, func(_, s *stats.Sim) float64 { return s.L1HitRate() }},            // Fig. 25
	{"cache.resfail_frac", 0.30, func(b, _ *stats.Sim) float64 { return b.ReservationFailRate() }}, // Fig. 3
	{"icnt.bw_util", 0.33, func(b, _ *stats.Sim) float64 { return b.BandwidthUtilization() }},      // Fig. 4
	{"sim.mem_stall_frac", 0.55, func(b, _ *stats.Sim) float64 { return b.MemStallFraction() }},    // Fig. 5
}

// modelLayers reports each model metric as its mean over the benchmarks,
// from the baseline and Snake runs, with its absolute distance from the
// paper's value in percentage points.
func modelLayers(base, snake map[string]*stats.Sim, m map[string]float64) {
	for _, ref := range paperRefs {
		var vals []float64
		for _, b := range workloads.Names() { // fixed order: the means repeat bit for bit
			if bs, ss := base[b], snake[b]; bs != nil && ss != nil {
				vals = append(vals, ref.value(bs, ss))
			}
		}
		if len(vals) == 0 {
			continue
		}
		v := mean(vals)
		m[ref.name] = v
		m[ref.name+"_paper_err_pp"] = 100 * math.Abs(v-ref.paper)
	}
}
