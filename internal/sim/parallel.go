package sim

import (
	"sync"
	"sync/atomic"
)

// workUnit is one schedulable unit of the parallel phase: an SM shard or a
// memory partition. Units are data-disjoint during tick spans — shards own
// their SM-private state, partitions own disjoint line-address sets — which
// is what lets the group run any subset of them concurrently.
type workUnit interface {
	tickSpan(from, to int64)
}

// taskRunner is the group's generic wave payload for non-span work (the
// epoch store scatter): runTask(i) must touch only state owned by task i, so
// any assignment of tasks to workers computes the same state.
type taskRunner interface {
	runTask(i int)
}

// shardGroup is a persistent crew of barrier workers that runs work waves —
// work-unit tick spans or generic task sets — one slack epoch at a time, with
// a barrier on each side of the parallel phase. The calling (engine)
// goroutine is participant 0 and runs its own stripe, so Parallelism=N uses
// N-1 extra goroutines.
//
// The crew is unit-agnostic and long-lived: the wave payload (units or tasks)
// is published per wave and cleared after the closing barrier, so a parked
// crew references nothing but itself. That is what lets one crew outlive
// engine Reset/reinit cycles and pool recycling — workers are created once
// per engine (per Parallelism value), parked between runs, and reclaimed by
// engine.closeCrew (explicitly via Engine.Close) or by the engine's
// crewReaper finalizer when a pooled engine is discarded.
//
// Determinism does not depend on the group at all: units are data-disjoint
// during tick spans (see workUnit) and tasks are data-disjoint by the
// taskRunner contract, so any interleaving computes the same state. The group
// only has to provide the two happens-before edges of the epoch:
//
//	engine's serial writes → release (epoch increment, atomic) → worker spans
//	worker spans → arrive (counter increment, atomic) → engine's serial reads
//
// An epoch is normally one combined wave over all units; with phase profiling
// enabled the engine instead runs two waves (partitions, then shards) via
// runSpan so the two halves' wall clocks are separable. Either schedule
// computes identical state — the units stay disjoint regardless of grouping.
//
// Waiters spin briefly, then park on a condition variable instead of
// yield-spinning: on a loaded or single-core machine a Gosched loop burns
// exactly the core the engine needs (the seed's par4-slower-than-serial
// pathology on one core), whereas a parked worker costs nothing until the
// engine wakes it. The wake-side epoch increment is atomic and happens
// before the broadcast under the same mutex the waiter re-checks under, so
// no wakeup can be lost.
type shardGroup struct {
	n int // participants, including the engine goroutine

	// Wave payload: exactly one of units/tasks is non-nil during a wave.
	// They are plain fields — written by the engine before the epoch release
	// and read by workers after observing it — and cleared after the closing
	// barrier so a parked crew holds no reference into any engine.
	units    []workUnit
	tasks    taskRunner
	from, to int64
	lo, hi   int // unit/task span for the current wave
	quit     bool
	stopped  bool // stop already ran (close paths are idempotent)

	epoch   atomic.Uint64
	arrived atomic.Int64

	mu       sync.Mutex
	wake     *sync.Cond // workers park here awaiting the next wave
	done     *sync.Cond // the engine parks here awaiting stragglers
	sleepers int        // workers currently parked on wake
	joinWait bool       // engine currently parked on done
}

// startShardGroup launches a parked crew of n-1 workers. n must be ≥ 2; a
// wave whose span is narrower than n leaves the surplus workers idling at
// that wave's barrier.
func startShardGroup(n int) *shardGroup {
	g := &shardGroup{n: n}
	g.wake = sync.NewCond(&g.mu)
	g.done = sync.NewCond(&g.mu)
	for w := 1; w < n; w++ {
		go g.worker(w)
	}
	return g
}

// runSpan ticks units [lo, hi) for the epoch [from, to] as one barrier wave
// and returns after all of them finished.
func (g *shardGroup) runSpan(units []workUnit, from, to int64, lo, hi int) {
	g.units, g.tasks = units, nil
	g.from, g.to, g.lo, g.hi = from, to, lo, hi
	g.release()
	for i := lo; i < hi; i += g.n {
		units[i].tickSpan(from, to)
	}
	g.join()
	g.units = nil
}

// runTasks runs tasks [0, n) of t as one barrier wave and returns after all
// of them finished.
func (g *shardGroup) runTasks(t taskRunner, n int) {
	g.units, g.tasks = nil, t
	g.lo, g.hi = 0, n
	g.release()
	for i := 0; i < n; i += g.n {
		t.runTask(i)
	}
	g.join()
	g.tasks = nil
}

// stop terminates the workers and waits for them to exit. Idempotent: close
// paths (explicit Close, run-error teardown, crewReaper finalizer) may
// overlap.
func (g *shardGroup) stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.quit = true
	g.release()
	g.join()
}

// release opens the next wave: the epoch increment is the release edge, and
// any parked workers are woken under the mutex afterwards. A worker that is
// between its epoch check and its Wait holds the mutex, so the broadcast
// cannot slip into that gap.
func (g *shardGroup) release() {
	g.epoch.Add(1)
	g.mu.Lock()
	if g.sleepers > 0 {
		g.wake.Broadcast()
	}
	g.mu.Unlock()
}

// join waits until every worker has arrived at the barrier, then resets the
// arrival counter for the next wave. Workers never touch the counter again
// until they observe that next wave, so the reset cannot race.
func (g *shardGroup) join() {
	target := int64(g.n - 1)
	for spins := 0; spins < spinLimit; spins++ {
		if g.arrived.Load() >= target {
			g.arrived.Store(0)
			return
		}
	}
	g.mu.Lock()
	g.joinWait = true
	for g.arrived.Load() < target {
		g.done.Wait()
	}
	g.joinWait = false
	g.mu.Unlock()
	g.arrived.Store(0)
}

// worker runs the stripe of each wave's span with offset ≡ w (mod n).
func (g *shardGroup) worker(w int) {
	for epoch := uint64(1); ; epoch++ {
		g.awaitEpoch(epoch)
		if g.quit {
			g.arrive()
			return
		}
		if t := g.tasks; t != nil {
			for i := g.lo + w; i < g.hi; i += g.n {
				t.runTask(i)
			}
		} else {
			from, to := g.from, g.to
			units := g.units
			for i := g.lo + w; i < g.hi; i += g.n {
				units[i].tickSpan(from, to)
			}
		}
		g.arrive()
	}
}

// awaitEpoch blocks until the group's epoch reaches target: a short spin for
// the hot all-cores-running case, then a parked wait.
func (g *shardGroup) awaitEpoch(target uint64) {
	for spins := 0; spins < spinLimit; spins++ {
		if g.epoch.Load() >= target {
			return
		}
	}
	g.mu.Lock()
	for g.epoch.Load() < target {
		g.sleepers++
		g.wake.Wait()
		g.sleepers--
	}
	g.mu.Unlock()
}

// arrive reports this worker's wave completion; the last arrival wakes a
// parked engine.
func (g *shardGroup) arrive() {
	if g.arrived.Add(1) == int64(g.n-1) {
		g.mu.Lock()
		if g.joinWait {
			g.done.Signal()
		}
		g.mu.Unlock()
	}
}

// spinLimit is how many tight polls to attempt before parking. Barriers open
// within nanoseconds when all participants are running; the park path exists
// for oversubscribed machines, where continuing to spin would steal the very
// core the still-working participant needs.
const spinLimit = 128
