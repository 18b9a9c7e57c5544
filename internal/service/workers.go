package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"snake/internal/cluster"
	"snake/internal/harness"
	"snake/internal/sim"
	"snake/internal/stats"
	"snake/internal/workloads"
)

// job is one queued/running/completed simulation.
type job struct {
	id      string
	seq     int64
	spec    spec
	key     string
	sweepID string
	heapIdx int // position in the priority heap (queue lock; -1 when out)

	mu         sync.Mutex
	status     Status
	cached     bool
	source     string // where the result came from (RunView.Source)
	st         *stats.Sim
	err        error
	cancel     context.CancelFunc // non-nil while running
	startedAt  time.Time
	finishedAt time.Time

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// view snapshots the job for the wire.
func (j *job) view() RunView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := RunView{
		ID:     j.id,
		Bench:  j.spec.bench,
		App:    j.spec.app,
		Chain:  j.spec.chain,
		Mech:   j.spec.mech,
		Key:    j.key,
		Status: j.status,
		Cached: j.cached,
		Source: j.source,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if j.status == StatusDone && j.st != nil {
		v.Result = summarize(j.st)
	}
	if !j.finishedAt.IsZero() && !j.startedAt.IsZero() {
		v.WallMS = float64(j.finishedAt.Sub(j.startedAt)) / float64(time.Millisecond)
	}
	return v
}

// worker is one pool goroutine: pop jobs until the queue closes and drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job: tiered cache lookup first (memory → disk → owning
// peer), then exactly-once production under the per-key flight lock — a
// forwarded execution on the owning peer when clustered, a local simulation
// otherwise or as the degradation path.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.status != StatusQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.startedAt = time.Now()
	var ctx context.Context
	var cancel context.CancelFunc
	if j.spec.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, j.spec.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.cancel = cancel
	j.mu.Unlock()
	s.metrics.jobStarted()
	defer cancel()

	// Forwarded-in work serves local tiers only: the sender already ran the
	// peer tier, and this node is the key's owner.
	var st *stats.Sim
	var tier cluster.Tier
	if j.spec.noForward {
		st, tier = s.store.GetLocal(j.key)
	} else {
		st, tier = s.store.Get(ctx, j.key)
	}
	if st != nil {
		s.metrics.cacheHit()
		s.finish(j, st, nil, true, tier.String())
		return
	}
	s.metrics.cacheMiss()

	// Per-key singleflight: exactly one leader produces the result; jobs
	// that lose the race wait and re-read the cache. A leader that failed
	// (error, cancel) leaves the next waiter to claim leadership and retry.
	for {
		wait, leader := s.beginFlight(j.key)
		if leader {
			break
		}
		select {
		case <-wait:
		case <-ctx.Done():
			s.finish(j, nil, ctx.Err(), false, "")
			return
		}
		if st, tier := s.store.GetLocal(j.key); st != nil {
			s.metrics.cacheHit()
			s.finish(j, st, nil, true, tier.String())
			return
		}
	}
	st, source, err := s.produce(ctx, j)
	if err == nil {
		s.store.Put(j.key, st)
	}
	s.endFlight(j.key)
	s.finish(j, st, err, false, source)
}

// beginFlight claims or joins the in-flight production of key. It returns
// leader=true when the caller must produce the result (and later call
// endFlight); otherwise wait closes when the current leader finishes.
func (s *Service) beginFlight(key string) (wait <-chan struct{}, leader bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if ch, ok := s.flight[key]; ok {
		return ch, false
	}
	ch := make(chan struct{})
	s.flight[key] = ch
	return ch, true
}

func (s *Service) endFlight(key string) {
	s.flightMu.Lock()
	ch := s.flight[key]
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(ch)
}

// produce computes a missing result: forwarded to the key's owning peer
// when this node is not the owner, locally otherwise. Every forwarding
// failure — owner down, saturated, or erroring — degrades to local compute;
// a dead peer costs duplicated work, never a failed job.
func (s *Service) produce(ctx context.Context, j *job) (*stats.Sim, string, error) {
	if s.clu != nil && !j.spec.noForward {
		body, err := json.Marshal(j.spec.wireRequest())
		if err == nil {
			st, src, err := s.clu.Execute(ctx, j.key, body)
			if err == nil {
				s.metrics.forwardOK()
				return st, "forward:" + src, nil
			}
			if !errors.Is(err, cluster.ErrSelf) && ctx.Err() == nil {
				s.metrics.forwardFallback()
			}
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
		}
	}
	st, err := s.simulate(ctx, &j.spec)
	return st, "sim", err
}

// simulate builds the workload and runs the cycle-level simulation under
// ctx. The run ticks serially and holds one slot of the shared CPU budget
// for its duration, so however large the worker pool, concurrent
// simulations never exceed the budget; a server's parallelism is its jobs.
func (s *Service) simulate(ctx context.Context, sp *spec) (*stats.Sim, error) {
	if _, err := s.budget.Acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer s.budget.Release(1)
	// Registry mechanism names tag the pooled engine for prefetcher reuse;
	// custom snake configs all normalize to mech "snake:custom", which does
	// not identify one configuration, so they use the untagged path.
	tag := sp.mech
	if sp.snake != nil {
		tag = ""
	}
	opt := sim.Options{
		Config:        sp.gpu,
		NewPrefetcher: sp.factory,
		Context:       ctx,
	}
	if sp.app != "" {
		// Application job: the interned app was assembled (and validated) at
		// normalize time, so this fetch is a pure cache hit. The cache and the
		// wire carry the aggregate statistics; per-launch breakdowns are a
		// local concern (snakesim -app prints them).
		a, _, err := workloads.Shared().App(sp.app, sp.scale, sp.gpu.NumSM, sp.split)
		if err != nil {
			return nil, err
		}
		opt.ChainPersistence = sp.chain
		out, err := harness.SharedEnginePool().RunApp(a, opt, tag)
		if err != nil {
			return nil, err
		}
		return &out.Stats, nil
	}
	k, err := workloads.Shared().Kernel(sp.bench, sp.scale)
	if err != nil {
		return nil, err
	}
	out, err := harness.SharedEnginePool().Run(k, opt, tag)
	if err != nil {
		return nil, err
	}
	return &out.Stats, nil
}

// finish moves a running job to its terminal state and updates metrics.
func (s *Service) finish(j *job, st *stats.Sim, err error, cached bool, source string) {
	j.mu.Lock()
	j.finishedAt = time.Now()
	j.st, j.err, j.cached, j.source = st, err, cached, source
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
	default:
		j.status = StatusFailed
	}
	status := j.status
	wall := j.finishedAt.Sub(j.startedAt)
	j.mu.Unlock()
	s.metrics.jobFinished(status)
	if err == nil && !cached && source == "sim" {
		s.metrics.observeWall(j.spec.workload(), float64(wall)/float64(time.Millisecond))
	}
	close(j.done)
	s.notifySweep(j)
}

// cancelJob cancels a queued or running job; terminal jobs are left alone.
func (s *Service) cancelJob(j *job) {
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.err = context.Canceled
		j.mu.Unlock()
		// Drop it from the heap so the slot frees now; a worker that already
		// popped it (Remove returns false) skips non-queued jobs anyway.
		s.queue.Remove(j)
		s.metrics.jobDroppedQueued()
		close(j.done)
		s.notifySweep(j)
	case StatusRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel() // runJob observes the aborted sim and finishes the job
	default:
		j.mu.Unlock()
	}
}
