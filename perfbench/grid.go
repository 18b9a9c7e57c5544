package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"snake/internal/config"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// grid is the paper-grid workload: the Fig. 16–18 grid (eleven Table 2
// benchmarks × baseline and the ten Fig16Order mechanisms) on the scaled
// 4-SM × 64-warp machine. Each untraced repetition prefills the whole grid
// through a fresh harness.Runner (Runner.PrefillCtx on a fresh Budget of
// procs slots and a fresh EnginePool, Parallelism 1), as snakebench does.
// The seed rotates the benchmark and mechanism lists Prefill is given.
type grid struct {
	rc      runConfig
	cfg     config.GPU
	benches []string
	mechs   []string
	store   *workloads.Store
	insts   map[string]int64 // trace instruction count per benchmark
	buildMS []float64        // interning time of each set-up
	builds  int64
	last    map[gridCell]*stats.Sim // the latest repetition's results
}

type gridCell struct{ bench, mech string }

func newGrid(rc runConfig) *grid {
	g := &grid{rc: rc, cfg: config.Scaled(4, 64)}
	benches := workloads.Names()
	mechs := append([]string{"baseline"}, harness.Fig16Order...)
	// Both lists rotated by the seed; Prefill submits them benchmark-major.
	// A full shuffle would change how many engines each pool creates, and
	// with them the footprint, from seed to seed.
	r := rand.New(rand.NewSource(rc.seed))
	rb, rm := r.Intn(len(benches)), r.Intn(len(mechs))
	for i := range benches {
		g.benches = append(g.benches, benches[(i+rb)%len(benches)])
	}
	for j := range mechs {
		g.mechs = append(g.mechs, mechs[(j+rm)%len(mechs)])
	}
	return g
}

// cells lists the grid in Prefill's order.
func (g *grid) cells() []gridCell {
	var cs []gridCell
	for _, b := range g.benches {
		for _, m := range g.mechs {
			cs = append(cs, gridCell{b, m})
		}
	}
	return cs
}

// setup interns every benchmark's trace into a fresh store.
func (g *grid) setup(tr *tracer) error {
	st, insts, ms, err := internKernels(tr, workloads.Names(), g.rc.size.gridScale)
	if err != nil {
		return err
	}
	g.store, g.insts, g.builds = st, insts, st.Builds()
	g.buildMS = append(g.buildMS, ms)
	return nil
}

// internKernels builds each benchmark's kernel into a fresh store, recording
// one span per Store.Kernel call, and returns the store, the instruction
// count of each trace and the total build time in milliseconds.
func internKernels(tr *tracer, benches []string, sc workloads.Scale) (*workloads.Store, map[string]int64, float64, error) {
	st := workloads.NewStore()
	insts := map[string]int64{}
	var total time.Duration
	for _, b := range benches {
		t0 := time.Now()
		k, err := st.Kernel(b, sc)
		t1 := time.Now()
		if err != nil {
			return nil, nil, 0, err
		}
		tr.record(span{name: "workloads.Store.Kernel", start: t0, end: t1})
		total += t1.Sub(t0)
		insts[b] = int64(k.TotalInsts())
	}
	return st, insts, float64(total) / 1e6, nil
}

// pass runs whole grid repetitions while another one is expected to fit in
// the budget (at least one). Peak RSS is sampled during the first
// repetition: that is the footprint of one `snakebench -exp
// fig16,fig17,fig18` process, while later repetitions add the engines the
// earlier pools leaked (harness.retained_mb reports those).
func (g *grid) pass(budget time.Duration, tr *tracer) (*passResult, error) {
	p := &passResult{}
	start := time.Now()
	var last time.Duration
	for len(p.windows) == 0 || time.Since(start)+last <= budget {
		var stopRSS func() float64
		if len(p.windows) == 0 {
			stopRSS = sampleRSS()
		}
		t0 := time.Now()
		w := g.rep(tr, p)
		last = time.Since(t0)
		if stopRSS != nil {
			p.peakRSSMB = stopRSS()
		}
		w.secs = last.Seconds()
		p.windows = append(p.windows, w)
	}
	return p, nil
}

// rep runs one full grid and checks it: every cell's retired instruction
// count must equal its trace's, and so be identical across a benchmark's
// mechanisms. Cells that fail to run or fail a check are counted, never
// fatal. It returns the repetition's completed work; its one latency sample
// is the grid's wall time, which is what a snakebench user waits for.
func (g *grid) rep(tr *tracer, p *passResult) window {
	cells := g.cells()
	t0 := time.Now()
	var results []*stats.Sim
	var errs []error
	if tr == nil {
		results, errs = g.prefill(cells)
	} else {
		results, errs = g.tracedGrid(tr, cells)
	}
	wall := time.Since(t0)

	if g.rc.corrupt && results[0] != nil {
		results[0].Insts++
	}
	g.last = map[gridCell]*stats.Sim{}
	w := window{latMS: []float64{float64(wall) / 1e6}}
	for i, c := range cells {
		p.attempted++
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "perfbench: paper-grid %s/%s: %v\n", c.bench, c.mech, errs[i])
			p.failed++
			continue
		}
		st := results[i]
		if st.Insts != g.insts[c.bench] {
			p.failed++
			p.incorrect++
			continue
		}
		g.last[c] = st
		w.ops++
		w.winst += st.Insts
	}
	return w
}

// prefill runs the grid through a fresh harness.Runner: PrefillCtx, then
// one memoized Run per cell to read the results, as the figure experiments
// do.
func (g *grid) prefill(cells []gridCell) ([]*stats.Sim, []error) {
	r := harness.NewRunner()
	r.Cfg, r.Scale, r.Store = g.cfg, g.rc.size.gridScale, g.store
	r.Budget, r.Engines = harness.NewBudget(g.rc.procs), harness.NewEnginePool()
	// A failed cell is not memoized, so the Run below retries it and
	// reports its error.
	_ = r.PrefillCtx(context.Background(), g.benches, g.mechs)
	results := make([]*stats.Sim, len(cells))
	errs := make([]error, len(cells))
	for i, c := range cells {
		results[i], errs[i] = r.Run(c.bench, c.mech)
	}
	return results, errs
}

// tracedGrid runs the grid the way Runner.PrefillCtx does, one goroutine per
// cell on a fresh Budget and EnginePool, but through budgetRun, so that
// every Budget, Store and EnginePool call gets its span. Runner's own calls
// cannot be timed from outside.
func (g *grid) tracedGrid(tr *tracer, cells []gridCell) ([]*stats.Sim, []error) {
	ctx := context.Background()
	budget := harness.NewBudget(g.rc.procs)
	pool := harness.NewEnginePool()
	results := make([]*stats.Sim, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c gridCell) {
			defer wg.Done()
			op := tr.newID()
			t0 := time.Now()
			results[i], _, errs[i] = budgetRun(ctx, tr, op, i, budget, 1, "workloads.Store.Kernel",
				func() (poolCall, error) {
					f, err := harness.Mechanism(c.mech)
					if err != nil {
						return nil, err
					}
					k, err := g.store.Kernel(c.bench, g.rc.size.gridScale)
					if err != nil {
						return nil, err
					}
					return runKernel(pool, k, sim.Options{Config: g.cfg, NewPrefetcher: f, Parallelism: 1}, c.mech), nil
				})
			tr.record(span{name: "paper-grid.cell", id: op, op: op, lane: i, start: t0, end: time.Now()})
		}(i, c)
	}
	wg.Wait()
	return results, errs
}

// layers reports the harness and sim layers from the traced repetitions and
// the model metrics from the latest grid.
func (g *grid) layers(tr *tracer, _ *passResult, m map[string]float64) error {
	harnessLayers(tr, g.rc.procs, m)
	m["workloads.build_ms"] = median(g.buildMS)
	m["workloads.builds"] = float64(g.builds)
	base, snake := map[string]*stats.Sim{}, map[string]*stats.Sim{}
	for c, st := range g.last {
		switch c.mech {
		case "baseline":
			base[c.bench] = st
		case "snake":
			snake[c.bench] = st
		}
	}
	modelLayers(base, snake, m)
	return nil
}

func (g *grid) close() {}
