package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/trace"
	"snake/internal/workloads"
)

// wide is the wide-gpu workload: one simulation at a time on the 80-SM
// Table 1 machine (config.Default), each holding all procs slots of the
// Budget and ticking with Parallelism = procs. A round runs mum, nw and lps
// in a seeded order, then the pipeline app with chain persistence, all
// under Snake on one EnginePool.
//
// Its windows and latencies are in process CPU time, not wall time. The
// shards of a run meet at a barrier every few dozen cycles, so when the
// hypervisor takes one vCPU away the other waits too, and the wall time of
// a run follows the host's steal: on a shared 2-vCPU VM it swung 1.9x
// between runs of the same code (steal 4% to 35%), against 1.12x for CPU
// time. The wall-clock rate and the cores a run keeps busy are per-layer
// metrics (sim.wall_winst_per_s, sim.cores_used).
type wide struct {
	rc      runConfig
	cfg     config.GPU
	rng     *rand.Rand
	store   *workloads.Store
	app     *trace.App
	insts   map[string]int64
	budget  *harness.Budget
	pool    *harness.EnginePool
	buildMS []float64
	builds  int64
	traced  map[string]*stats.Sim // the traced pass's result per cell
	wallS   []float64             // the traced pass's round wall times
}

var wideKernels = []string{"mum", "nw", "lps"}

const wideApp = "pipeline"

func newWide(rc runConfig) *wide {
	return &wide{rc: rc, cfg: config.Default(), rng: rand.New(rand.NewSource(rc.seed))}
}

func snakeFactory(int) prefetch.Prefetcher { return core.NewSnake() }

// setup interns the three kernels and the app, and starts a fresh budget
// and engine pool.
func (w *wide) setup(tr *tracer) error {
	st, insts, ms, err := internKernels(tr, wideKernels, w.rc.size.wideScale)
	if err != nil {
		return err
	}
	t0 := time.Now()
	a, _, err := st.App(wideApp, w.rc.size.wideScale, w.cfg.NumSM, 0)
	t1 := time.Now()
	if err != nil {
		return err
	}
	tr.record(span{name: "workloads.Store.App", start: t0, end: t1})
	insts[wideApp] = int64(a.TotalInsts())
	w.store, w.app, w.insts, w.builds = st, a, insts, st.Builds()
	w.buildMS = append(w.buildMS, ms+float64(t1.Sub(t0))/1e6)
	w.budget, w.pool = harness.NewBudget(w.rc.procs), harness.NewEnginePool()
	return nil
}

// pass runs one warm-up round, which fills the engine pool and is checked
// but not timed, then whole timed rounds while another one is expected to
// fit in the budget (at least one), so every pass simulates the same mix.
func (w *wide) pass(budget time.Duration, tr *tracer) (*passResult, error) {
	p := &passResult{info: map[string]any{}}
	if tr != nil {
		w.traced = map[string]*stats.Sim{}
	}
	stopRSS := sampleRSS()
	start := time.Now()
	w.round(tr, p)
	var walls []float64
	var last time.Duration
	for len(p.windows) == 0 || time.Since(start)+last <= budget {
		t0, c0 := time.Now(), cpuSeconds()
		round := w.round(tr, p)
		round.secs = cpuSeconds() - c0
		last = time.Since(t0)
		walls = append(walls, last.Seconds())
		p.windows = append(p.windows, round)
	}
	p.info["round_wall_s"] = walls
	if tr != nil {
		w.wallS = walls
	}
	p.peakRSSMB = stopRSS()
	return p, nil
}

// round runs mum, nw and lps in a seeded order, then the app.
func (w *wide) round(tr *tracer, p *passResult) window {
	order := append([]string(nil), wideKernels...)
	w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var round window
	for _, cell := range append(order, wideApp) {
		w.sim(cell, tr, p, &round)
	}
	return round
}

// sim runs one cell and checks its retired instruction count against the
// trace's.
func (w *wide) sim(cell string, tr *tracer, p *passResult, round *window) {
	op := tr.newID()
	t0, c0 := time.Now(), cpuSeconds()
	opt := sim.Options{Config: w.cfg, NewPrefetcher: snakeFactory, Parallelism: w.rc.procs}
	build, buildName := func() (poolCall, error) {
		k, err := w.store.Kernel(cell, w.rc.size.wideScale)
		return runKernel(w.pool, k, opt, "snake"), err
	}, "workloads.Store.Kernel"
	if cell == wideApp {
		opt.ChainPersistence = true
		build, buildName = func() (poolCall, error) {
			a, _, err := w.store.App(cell, w.rc.size.wideScale, w.cfg.NumSM, 0)
			return runApp(w.pool, a, opt, "snake"), err
		}, "workloads.Store.App"
	}
	st, _, err := budgetRun(context.Background(), tr, op, 0, w.budget, w.rc.procs, buildName, build)
	t1, c1 := time.Now(), cpuSeconds()
	tr.record(span{name: "wide-gpu.sim", id: op, op: op, start: t0, end: t1})
	p.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wide-gpu %s: %v\n", cell, err)
		p.failed++
		return
	}
	if w.rc.corrupt {
		st.Insts++
	}
	if st.Insts != w.insts[cell] {
		p.failed++
		p.incorrect++
		return
	}
	round.ops++
	round.winst += st.Insts
	round.latMS = append(round.latMS, 1e3*(c1-c0))
	if w.traced != nil {
		w.traced[cell] = st
	}
}

// layers reports the harness and sim layers from the traced pass, then
// re-runs each traced cell at Parallelism 1 and counts any statistic that
// differs from the Parallelism = procs run as an incorrect operation.
func (w *wide) layers(tr *tracer, traced *passResult, m map[string]float64) error {
	harnessLayers(tr, w.rc.procs, m)
	m["workloads.build_ms"] = median(w.buildMS)
	m["workloads.builds"] = float64(w.builds)
	var wall, cpu float64
	var rates []float64
	for i, r := range traced.windows {
		wall += w.wallS[i]
		cpu += r.secs
		rates = append(rates, float64(r.winst)/w.wallS[i])
	}
	m["sim.wall_winst_per_s"] = median(rates)
	m["sim.cores_used"] = cpu / wall
	if w.rc.procs == 1 {
		traced.info["wide_p1_check"] = "skipped: one processor"
		return nil
	}
	checked := 0
	for cell, want := range w.traced {
		opt := sim.Options{Config: w.cfg, NewPrefetcher: snakeFactory, Parallelism: 1}
		var got *stats.Sim
		var err error
		if cell == wideApp {
			opt.ChainPersistence = true
			got, err = runApp(w.pool, w.app, opt, "snake")(nil)
		} else if k, kerr := w.store.Kernel(cell, w.rc.size.wideScale); kerr != nil {
			err = kerr
		} else {
			got, err = runKernel(w.pool, k, opt, "snake")(nil)
		}
		traced.attempted++
		checked++
		if err != nil || *got != *want {
			fmt.Fprintf(os.Stderr, "perfbench: wide-gpu %s: Parallelism %d and 1 disagree (err %v)\n", cell, w.rc.procs, err)
			traced.failed++
			traced.incorrect++
		}
	}
	traced.info["wide_p1_checked"] = checked
	return nil
}

func (w *wide) close() {}
