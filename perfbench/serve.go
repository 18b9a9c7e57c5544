package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snake/internal/cluster"
	"snake/internal/config"
	"snake/internal/core"
	"snake/internal/harness"
	"snake/internal/prefetch"
	"snake/internal/service"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// serve is the serve-mixed workload: a closed loop of procs clients against
// an in-process snaked (service.New behind net/http/httptest) with Workers =
// procs, a memory tier that holds the hot keys but not the whole key set,
// and a disk tier in a scratch directory. Each client sends its next
// request only after the previous one completes, as snaked callers that
// wait on ?wait=1 or a sweep stream do.
type serve struct {
	rc       runConfig
	gen      *opGen
	hot      []service.RunRequest // prewarmed last: served from memory
	disk     []service.RunRequest // prewarmed first: pushed out to disk
	memBytes int64

	insts   map[string]int64 // trace instruction count per bench and "app:"+name
	buildMS []float64
	builds  int64

	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	dir    string

	refMu   sync.Mutex
	refs    map[string]service.Result // first result seen per content key
	corrupt atomic.Bool               // self-test: falsify the next result checked

	prewarmKeys []string // content keys in prewarm order (disk, then hot)
	traced      *serveTrace
}

// serveTrace is what the traced pass keeps for the standalone replays.
type serveTrace struct {
	mu      sync.Mutex
	keys    []string             // served keys in completion order
	fresh   []service.RunRequest // fresh kernel simulations, in completion order
	refused int
}

type serveKind int

const (
	kindMemHit serveKind = iota
	kindDiskHit
	kindFreshSim
	kindApp
	kindSweep
	numKinds
)

var kindNames = [numKinds]string{"mem_hit", "disk_hit", "fresh_sim", "app", "sweep"}

// kindBlock is how many operations of each kind every block of 200
// consecutive operations holds, in a seeded order: 75% memory-hit repeats,
// 8% disk-hit repeats, 15% fresh simulations, 0.5% app jobs and 1.5% sweeps.
// The slowest benchmark's fresh simulations (lib) then make up about 1.4% of
// the latency samples, so serve_p99_ms falls inside their latencies. At 10%
// they made up 0.9%, and the 99th percentile sat on the gap between lib and
// the next slowest benchmark, jumping across it from run to run.
var kindBlock = [numKinds]int{150, 16, 30, 1, 3}

// sweepBenches is the number of benchmarks in each sweep (one cell each).
const sweepBenches = 3

// serveWindows is how many equal windows a pass is measured in.
const serveWindows = 6

// rssOps is how many operations peak RSS is sampled over: a fixed count,
// since the service keeps every job it ran and its footprint grows with the
// jobs served, so a pass-long peak would rise with throughput.
const rssOps = 5 * 200

// entryBytes approximates one result's charge against the memory tier: its
// JSON encoding (about 500 bytes for stats.Sim), its 64-byte key and the
// store's 128-byte per-entry overhead.
const entryBytes = 700

type serveOp struct {
	kind  serveKind
	run   service.RunRequest
	sweep service.SweepRequest
}

func newServe(rc runConfig) *serve {
	s := &serve{rc: rc, refs: map[string]service.Result{}}
	// Every benchmark has one hot key and two disk keys, so the prewarm
	// costs the same whatever the seed.
	for _, b := range workloads.Names() {
		s.hot = append(s.hot, service.RunRequest{Bench: b, Mech: "snake"})
		s.disk = append(s.disk, service.RunRequest{Bench: b, Mech: "baseline"}, service.RunRequest{Bench: b, Mech: "mta"})
	}
	// The memory tier holds twice the hot keys: disk keys and fresh results
	// churn through the other half, so they rarely displace a hot key, and a
	// promoted disk key is evicted again long before its next request.
	s.memBytes = int64(2*len(s.hot)) * entryBytes
	s.gen = &opGen{r: rand.New(rand.NewSource(rc.seed)), s: s, used: map[freshKey]bool{}}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: rc.procs, MaxConnsPerHost: rc.procs}}
	return s
}

// setup interns the traces, starts a fresh service on a fresh disk tier, and
// prewarms it: the disk keys first, then the hot keys, so the hot keys end
// up in memory and the disk keys only on disk.
func (s *serve) setup(tr *tracer) error {
	st, insts, ms, err := internKernels(tr, workloads.Names(), s.rc.size.serveScale)
	if err != nil {
		return err
	}
	for _, name := range workloads.AppNames() {
		t := time.Now()
		a, _, err := st.App(name, s.rc.size.serveScale, serveGPU.NumSM, 0)
		e := time.Now()
		if err != nil {
			return err
		}
		tr.record(span{name: "workloads.Store.App", start: t, end: e})
		ms += float64(e.Sub(t)) / 1e6
		insts["app:"+name] = int64(a.TotalInsts())
	}
	s.insts, s.builds = insts, st.Builds()
	s.buildMS = append(s.buildMS, ms)

	s.close()
	if s.dir, err = os.MkdirTemp(s.rc.dir, "serve-cache-"); err != nil {
		return err
	}
	scale := s.rc.size.serveScale
	s.svc = service.New(service.Options{
		Workers:       s.rc.procs,
		Budget:        harness.NewBudget(s.rc.procs),
		Scale:         &scale,
		CacheMaxBytes: s.memBytes,
		CacheDir:      s.dir,
	})
	s.srv = httptest.NewServer(s.svc.Handler())
	s.prewarmKeys = nil
	for _, keys := range [][]service.RunRequest{s.disk, s.hot} {
		views, err := s.prewarm(keys)
		if err != nil {
			return err
		}
		for _, v := range views {
			s.prewarmKeys = append(s.prewarmKeys, v.Key)
		}
	}
	return nil
}

// serveGPU is snaked's default machine, which every serve-mixed job uses.
var serveGPU = config.Scaled(4, 64)

// prewarm runs the requests on procs concurrent clients and checks each.
func (s *serve) prewarm(reqs []service.RunRequest) ([]service.RunView, error) {
	views := make([]service.RunView, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.rc.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				v, code, err := s.postRun(reqs[i])
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d", code)
				}
				if err == nil && !s.correct(reqs[i], v) {
					err = errors.New("incorrect result")
				}
				views[i], errs[i] = v, err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("serve-mixed prewarm: %w", err)
	}
	return views, nil
}

// postRun submits one job with ?wait=1 and decodes the finished job.
func (s *serve) postRun(req service.RunRequest) (service.RunView, int, error) {
	var v service.RunView
	body, err := json.Marshal(req)
	if err != nil {
		return v, 0, err
	}
	resp, err := s.client.Post(s.srv.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return v, resp.StatusCode, err
	}
	return v, resp.StatusCode, json.Unmarshal(b, &v)
}

// correct checks one finished job: it must be done, retire exactly its
// trace's instructions, and carry the same Result as every other response
// for its content key, whichever tier served it.
func (s *serve) correct(req service.RunRequest, v service.RunView) bool {
	if v.Status != service.StatusDone || v.Result == nil {
		return false
	}
	res := *v.Result
	if s.corrupt.CompareAndSwap(true, false) {
		res.Insts++
	}
	want := s.insts[req.Bench]
	if req.App != "" {
		want = s.insts["app:"+req.App]
	}
	if res.Insts != want {
		return false
	}
	s.refMu.Lock()
	defer s.refMu.Unlock()
	if ref, ok := s.refs[v.Key]; ok {
		return ref == res
	}
	s.refs[v.Key] = res
	return true
}

// pass runs the closed loop for the budget.
func (s *serve) pass(budget time.Duration, tr *tracer) (*passResult, error) {
	p := &passResult{pooled: true}
	if tr != nil {
		s.traced = &serveTrace{}
	} else {
		s.corrupt.Store(s.rc.corrupt)
	}
	var mu sync.Mutex
	var kinds [numKinds]int
	// Operations are binned by completion time into serveWindows equal
	// windows; those completing after the budget count only toward attempts
	// and failures.
	p.windows = make([]window, serveWindows)
	width := budget / serveWindows
	for i := range p.windows {
		p.windows[i].secs = width.Seconds()
	}
	stopRSS := sampleRSS()
	total := 0 // operations finished
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < s.rc.procs; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := s.gen.next()
				one := s.do(op, lane, tr)
				bin := int(time.Since(start) / width)
				mu.Lock()
				kinds[op.kind]++
				if total++; total == rssOps {
					p.peakRSSMB = stopRSS()
				}
				p.attempted += one.attempted
				p.failed += one.failed
				p.incorrect += one.incorrect
				if bin < serveWindows {
					w := &p.windows[bin]
					w.ops += one.attempted - one.failed
					w.winst += one.winst
					w.latMS = append(w.latMS, one.latMS...)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if total < rssOps { // only in the self-test's short passes
		p.peakRSSMB = stopRSS()
	}
	mix := map[string]float64{}
	for k, n := range kinds {
		mix[kindNames[k]] = float64(n) / float64(max(total, 1))
	}
	p.info = map[string]any{"serve_ops": total, "serve_mix": mix, "serve_rss_ops": min(total, rssOps),
		"fresh_key_resets": s.gen.resets}
	return p, nil
}

// Numeric codes for RunView.Source in span arguments.
const (
	srcOther = iota
	srcMemory
	srcDisk
	srcSim
)

func sourceCode(src string) float64 {
	switch src {
	case "memory":
		return srcMemory
	case "disk":
		return srcDisk
	case "sim":
		return srcSim
	}
	return srcOther
}

// opResult is one operation's counts.
type opResult struct {
	attempted, failed, incorrect int
	winst                        int64
	latMS                        []float64
}

// do performs one operation and returns its counts.
func (s *serve) do(op serveOp, lane int, tr *tracer) *opResult {
	id := tr.newID()
	t0 := time.Now()
	var out *opResult
	if op.kind == kindSweep {
		out = s.doSweep(op.sweep, id, lane, tr)
	} else {
		out = s.doRun(op.run, id, lane, tr)
	}
	tr.record(span{name: "serve-mixed." + kindNames[op.kind], id: id, op: id, lane: lane, start: t0, end: time.Now()})
	return out
}

func (s *serve) doRun(req service.RunRequest, id int64, lane int, tr *tracer) *opResult {
	out := &opResult{attempted: 1}
	t0 := time.Now()
	v, code, err := s.postRun(req)
	t1 := time.Now()
	if err != nil || code != http.StatusOK {
		out.failed++
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.noteRefused(tr)
		}
		return out
	}
	tr.record(span{name: "service.POST /v1/runs", parent: id, op: id, lane: lane, start: t0, end: t1,
		args: map[string]float64{"wall_ms": v.WallMS, "source": sourceCode(v.Source)}})
	if !s.correct(req, v) {
		out.failed++
		out.incorrect++
		return out
	}
	out.latMS = append(out.latMS, float64(t1.Sub(t0))/1e6)
	if v.Source == "sim" {
		out.winst += v.Result.Insts
	}
	if tr != nil {
		s.traced.mu.Lock()
		s.traced.keys = append(s.traced.keys, v.Key)
		if v.Source == "sim" && req.Bench != "" && req.Snake != nil {
			s.traced.fresh = append(s.traced.fresh, req)
		}
		s.traced.mu.Unlock()
	}
	return out
}

// streamLine is one line of a sweep stream: a finished cell, or the final
// StreamEnd line that carries stream_done.
type streamLine struct {
	service.RunView
	Done bool `json:"stream_done"`
}

// doSweep submits a sweep and reads its cells from the NDJSON stream. Every
// cell counts as one attempted operation.
func (s *serve) doSweep(req service.SweepRequest, id int64, lane int, tr *tracer) *opResult {
	out := &opResult{attempted: len(req.Benches)}
	fail := func() *opResult { out.failed = out.attempted; return out }
	body, err := json.Marshal(req)
	if err != nil {
		return fail()
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail()
	}
	var sv service.SweepView
	err = json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	t1 := time.Now()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		s.noteRefused(tr)
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fail()
	}
	tr.record(span{name: "service.POST /v1/sweeps", parent: id, op: id, lane: lane, start: t0, end: t1})

	resp, err = s.client.Get(s.srv.URL + "/v1/sweeps/" + sv.ID + "/stream")
	if err != nil {
		return fail()
	}
	defer resp.Body.Close()
	byID := map[string]string{}
	for _, j := range sv.Jobs {
		byID[j.ID] = j.Bench
	}
	good := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line streamLine
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Done {
			break
		}
		if !s.correct(service.RunRequest{Bench: byID[line.ID]}, line.RunView) {
			out.incorrect++
			continue
		}
		good++
		if line.Source == "sim" {
			out.winst += line.Result.Insts
		}
		if tr != nil {
			s.traced.mu.Lock()
			s.traced.keys = append(s.traced.keys, line.Key)
			s.traced.mu.Unlock()
		}
	}
	tr.record(span{name: "service.GET /v1/sweeps/{id}/stream", parent: id, op: id, lane: lane, start: t1, end: time.Now()})
	out.failed = out.attempted - good
	return out
}

func (s *serve) noteRefused(tr *tracer) {
	if tr == nil {
		return
	}
	s.traced.mu.Lock()
	s.traced.refused++
	s.traced.mu.Unlock()
}

// layers reports the service and cluster layers from the traced pass, and
// the harness and sim layers from a replay of its first fresh simulations
// on a standalone Budget and EnginePool (the service's own calls into them
// cannot be timed from outside).
func (s *serve) layers(tr *tracer, _ *passResult, m map[string]float64) error {
	m["workloads.build_ms"] = median(s.buildMS)
	m["workloads.builds"] = float64(s.builds)

	var hits, sims, overhead []float64
	var bySource [srcSim + 1]float64
	runs := tr.named("service.POST /v1/runs")
	for _, sp := range runs {
		src := int(sp.args["source"])
		bySource[src]++
		overhead = append(overhead, sp.ms()-sp.args["wall_ms"])
		switch src {
		case srcMemory:
			hits = append(hits, sp.ms())
		case srcSim:
			sims = append(sims, sp.ms())
		}
	}
	m["service.hit_p50_ms"] = median(hits)
	m["service.sim_p50_ms"] = median(sims)
	m["service.overhead_p50_ms"] = median(overhead)
	m["service.refused"] = float64(s.traced.refused)
	if n := float64(len(runs)); n > 0 {
		m["cluster.mem_hit_frac"] = bySource[srcMemory] / n
		m["cluster.disk_hit_frac"] = bySource[srcDisk] / n
		m["cluster.miss_frac"] = bySource[srcSim] / n
	}

	value, err := s.replayHarness(tr, m)
	if err != nil {
		return err
	}
	return s.replayStore(tr, value, m)
}

// replayHarness runs the traced pass's first fresh kernel simulations again,
// concurrently like a Prefill, on a fresh Budget of procs slots and a fresh
// EnginePool, and derives the harness and sim metrics from their spans. It
// returns one result for the store replay to store.
func (s *serve) replayHarness(tr *tracer, m map[string]float64) (*stats.Sim, error) {
	reqs := s.traced.fresh
	if len(reqs) > s.rc.size.replaySims {
		reqs = reqs[:s.rc.size.replaySims]
	}
	if len(reqs) == 0 {
		return nil, errors.New("serve-mixed: the traced pass ran no fresh simulation")
	}
	rt := newTracer()
	budget, pool := harness.NewBudget(s.rc.procs), harness.NewEnginePool()
	results := make([]*stats.Sim, len(reqs))
	errs := make([]error, len(reqs))
	err := tracePass(rt, func() error {
		var wg sync.WaitGroup
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req service.RunRequest) {
				defer wg.Done()
				// Custom Snake configurations run untagged, as in the service.
				cfg := *req.Snake
				opt := sim.Options{Config: serveGPU, Parallelism: 1,
					NewPrefetcher: func(int) prefetch.Prefetcher { return core.New(cfg) }}
				op := rt.newID()
				t0 := time.Now()
				results[i], _, errs[i] = budgetRun(context.Background(), rt, op, i, budget, 1, "workloads.Store.Kernel",
					func() (poolCall, error) {
						k, err := workloads.Shared().Kernel(req.Bench, s.rc.size.serveScale)
						return runKernel(pool, k, opt, ""), err
					})
				rt.record(span{name: "serve-mixed.replay", id: op, op: op, lane: i, start: t0, end: time.Now()})
			}(i, req)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, fmt.Errorf("serve-mixed replay: %w", err)
	}
	harnessLayers(rt, s.rc.procs, m)
	tr.merge(rt)
	return results[0], nil
}

// replayStore replays the prewarm and the traced key sequence on a
// standalone cluster.Store with the service's memory budget and a fresh disk
// tier: a Get per served key and a Put per miss, each timed.
func (s *serve) replayStore(tr *tracer, value *stats.Sim, m map[string]float64) error {
	dir, err := os.MkdirTemp(s.rc.dir, "serve-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := cluster.NewStore(cluster.StoreOptions{MaxBytes: s.memBytes, Dir: dir})
	ctx := context.Background()
	op := tr.newID()
	t0 := time.Now()
	var getMem, getDisk, puts []float64
	put := func(key string) {
		t := time.Now()
		st.Put(key, value)
		e := time.Now()
		puts = append(puts, float64(e.Sub(t))/1e3)
		tr.record(span{name: "cluster.Store.Put", parent: op, op: op, start: t, end: e})
	}
	for _, key := range s.prewarmKeys {
		put(key)
	}
	for _, key := range s.traced.keys {
		t := time.Now()
		got, tier := st.Get(ctx, key)
		e := time.Now()
		tr.record(span{name: "cluster.Store.Get", parent: op, op: op, start: t, end: e,
			args: map[string]float64{"tier": float64(tier)}})
		switch {
		case got == nil:
			put(key)
		case tier == cluster.TierMemory:
			getMem = append(getMem, float64(e.Sub(t))/1e3)
		case tier == cluster.TierDisk:
			getDisk = append(getDisk, float64(e.Sub(t))/1e3)
		}
	}
	tr.record(span{name: "serve-mixed.store-replay", id: op, op: op, start: t0, end: time.Now()})
	m["cluster.get_mem_us"] = median(getMem)
	m["cluster.get_disk_us"] = median(getDisk)
	m["cluster.put_us"] = median(puts)
	return nil
}

// close stops the service and removes its disk tier.
func (s *serve) close() {
	if s.srv != nil {
		s.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.svc.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve-mixed shutdown:", err)
		}
		s.client.CloseIdleConnections()
		s.srv, s.svc = nil, nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// opGen draws the seeded operation sequence. Clients take operations in
// sequence order; only their interleaving depends on timing.
type opGen struct {
	mu     sync.Mutex
	r      *rand.Rand
	s      *serve
	used   map[freshKey]bool
	resets int // times every fresh key had been used and the set was cleared
	kindQ  []serveKind
	cfgQ   []core.Config
	benchQ []string
	appQ   []string
}

// freshKey identifies one fresh job: a benchmark or app (with its chain
// flag) under one custom Snake configuration.
type freshKey struct {
	job   string
	chain bool
	cfg   core.Config
}

func (g *opGen) next() serveOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.kindQ) == 0 {
		for k, n := range kindBlock {
			for i := 0; i < n; i++ {
				g.kindQ = append(g.kindQ, serveKind(k))
			}
		}
		g.r.Shuffle(len(g.kindQ), func(i, j int) { g.kindQ[i], g.kindQ[j] = g.kindQ[j], g.kindQ[i] })
	}
	op := serveOp{kind: g.kindQ[0]}
	g.kindQ = g.kindQ[1:]
	switch op.kind {
	case kindMemHit:
		op.run = g.s.hot[g.r.Intn(len(g.s.hot))]
	case kindDiskHit:
		op.run = g.s.disk[g.r.Intn(len(g.s.disk))]
	case kindFreshSim:
		cfg, jobs := g.fresh(1, false, func() string { return deal(g.r, &g.benchQ, workloads.Names) })
		op.run = service.RunRequest{Bench: jobs[0], Snake: &cfg}
	case kindApp:
		chain := g.r.Intn(2) == 1
		cfg, jobs := g.fresh(1, chain, func() string { return deal(g.r, &g.appQ, workloads.AppNames) })
		op.run = service.RunRequest{App: jobs[0], Chain: chain, Snake: &cfg}
	case kindSweep:
		cfg, jobs := g.fresh(sweepBenches, false, func() string { return deal(g.r, &g.benchQ, workloads.Names) })
		op.sweep = service.SweepRequest{Benches: jobs, Snake: &cfg}
	}
	return op
}

// fresh deals a configuration and n distinct jobs from job() that have not
// run under it before, so the service has to simulate them. When the dealt
// configuration has too few unused jobs it deals another. Should every key
// be used, it clears the record and counts a reset: the run then repeats
// keys, which the service serves from its cache.
func (g *opGen) fresh(n int, chain bool, job func() string) (core.Config, []string) {
	const tries = 1 << 12
	for t := 0; ; t++ {
		if t == tries {
			g.used = map[freshKey]bool{}
			g.resets++
		}
		cfg := deal(g.r, &g.cfgQ, freshConfigs)
		var jobs []string
		for d := 0; d < 4*len(workloads.Names()) && len(jobs) < n; d++ {
			j := job()
			if k := (freshKey{j, chain, cfg}); !g.used[k] && !slices.Contains(jobs, j) {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == n {
			for _, j := range jobs {
				g.used[freshKey{j, chain, cfg}] = true
			}
			return cfg, jobs
		}
	}
}

// deal returns the next item from *q, refilling it with a seeded
// permutation of all() when empty, so every stretch of len(all()) draws
// covers each item once.
func deal[T any](r *rand.Rand, q *[]T, all func() []T) T {
	if len(*q) == 0 {
		*q = all()
		r.Shuffle(len(*q), func(i, j int) { (*q)[i], (*q)[j] = (*q)[j], (*q)[i] })
	}
	x := (*q)[0]
	*q = (*q)[1:]
	return x
}

// knob is one snakesweep knob fresh configurations vary, with the values
// it takes.
type knob struct {
	set          func(*core.Config, int)
	lo, hi, step int
}

// knobs are snakesweep's knobs (cmd/snakesweep) that fresh configurations
// vary. ChainDepth, TailEntries (Fig. 20), ThrottleCycles (Fig. 23) and the
// two stride degrees span the ranges the paper's sensitivity studies cover;
// HeadRows, PromoteWarps and MaxRequestsPerAccess span a few times their
// defaults either way, so that one run finds enough distinct keys.
var knobs = []knob{
	{func(c *core.Config, v int) { c.ChainDepth = v }, 1, 8, 1},
	{func(c *core.Config, v int) { c.TailEntries = v }, 3, 20, 1},
	{func(c *core.Config, v int) { c.ThrottleCycles = v }, 10, 400, 10},
	{func(c *core.Config, v int) { c.IntraDegree = v }, 1, 4, 1},
	{func(c *core.Config, v int) { c.InterWarpDegree = v }, 1, 4, 1},
	{func(c *core.Config, v int) { c.HeadRows = v }, 8, 64, 8},
	{func(c *core.Config, v int) { c.PromoteWarps = v }, 1, 8, 1},
	{func(c *core.Config, v int) { c.MaxRequestsPerAccess = v }, 1, 16, 1},
}

// freshConfigs lists every configuration a snakesweep user can ask for
// with one -knob over these values: core.Defaults with one knob set to one
// value other than its default.
func freshConfigs() []core.Config {
	var cs []core.Config
	for _, k := range knobs {
		for v := k.lo; v <= k.hi; v += k.step {
			c := core.Defaults()
			k.set(&c, v)
			if c != core.Defaults() {
				cs = append(cs, c)
			}
		}
	}
	return cs
}
