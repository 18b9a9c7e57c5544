// Package sim is the cycle-level GPU memory-system simulator: SMs with warp
// schedulers and scoreboarded warps, per-SM L1 controllers (MSHRs, miss
// queues, reservation fails), a bandwidth-limited interconnect, banked L2
// partitions and DRAM timing. It substitutes for Accel-Sim in the Snake
// reproduction; see DESIGN.md for the substitution argument.
//
// The engine is sharded on both sides of the interconnect: each SM (plus its
// warps, L1 and prefetcher) is a shard, and each L2 partition (plus its DRAM
// controller) is a work unit too — both talk across the boundary only
// through typed, cycle-stamped port queues and per-cycle work bins, and both
// may tick concurrently (Options.Parallelism) with results bit-identical to
// serial execution — see DESIGN.md "Parallel execution" and "Memory-side
// parallelism".
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"

	"snake/internal/config"
	"snake/internal/icnt"
	"snake/internal/prefetch"
	"snake/internal/profiling"
	"snake/internal/stats"
	"snake/internal/trace"
)

// Options configures a simulation run.
type Options struct {
	Config config.GPU
	// Context, when non-nil, is polled periodically inside the cycle loop;
	// cancellation aborts the run with the context's error. A nil Context
	// runs to completion.
	Context context.Context
	// NewPrefetcher constructs the per-SM prefetcher; nil runs the baseline.
	NewPrefetcher func(smID int) prefetch.Prefetcher
	// MaxCycles aborts runaway simulations (default 20,000,000).
	MaxCycles int64
	// Parallelism is how many workers tick work units — SM shards and L2
	// memory partitions — concurrently within each slack epoch (default 1:
	// serial). Results are bit-identical for every value — units exchange
	// state only at the epoch barrier, in fixed merge orders — so callers
	// may pick purely on available cores. Clamped to the total unit count
	// (NumSM + L2Partitions). On a single-core runtime (GOMAXPROCS == 1)
	// values > 1 degrade to serial ticking — extra workers can only steal
	// the engine's core there — unless ForceParallelism overrides.
	Parallelism int
	// ForceParallelism keeps Parallelism > 1 worker groups even when
	// GOMAXPROCS == 1. Results are identical either way; this exists for the
	// equivalence tests, which must exercise the real multi-worker barrier
	// on single-core CI machines.
	ForceParallelism bool
	// PhaseProfile, when non-nil, accumulates the engine's wall-clock time
	// per cycle phase (serial route, parallel partitions, parallel shards,
	// serial merge) into the given accumulator across the run. Profiling
	// never changes Result (see phaseClock); it exists to measure the serial
	// share Amdahl's law cares about. Not safe to share one accumulator
	// between concurrently running engines.
	PhaseProfile *profiling.Phases
	// ChainPersistence keeps prefetcher state — Snake's variable-length
	// chain tables — across kernel-launch boundaries within an App run:
	// a launch activated by the launch scheduler starts with its SMs'
	// tables already trained by earlier launches. False (the default)
	// flushes prefetcher state at every scheduler activation, scoping
	// chain detection to one launch. Irrelevant for single-launch runs
	// (there are no scheduler activations) and independent of L1 data,
	// which stays warm either way. See DESIGN.md "Application launch
	// layer".
	ChainPersistence bool
	// DisableSkip forces the engine to execute every cycle individually
	// instead of fast-forwarding over provably idle spans. Skipping is
	// exact — Result.Stats is bit-identical either way (see DESIGN.md
	// "Engine fast-forwarding" and the golden equivalence test) — so this
	// exists as an escape hatch for debugging and for validating that
	// equivalence.
	DisableSkip bool
	// PrefetcherTag is an opaque identifier for the configuration behind
	// NewPrefetcher (e.g. the mechanism registry name). When non-empty and
	// equal to the previous run's tag on the same Engine, the engine calls
	// Reset on its existing prefetcher instances instead of constructing new
	// ones, so back-to-back runs of one mechanism allocate nothing for
	// prefetch state either. Callers must guarantee that equal tags imply
	// equivalent factories; the empty tag never reuses prefetchers.
	PrefetcherTag string

	// slackWindow is the bounded-slack epoch length: how many consecutive
	// cycles every work unit ticks between barriers. 0 (auto) and anything
	// above the config's provable bound resolve to that bound
	// (config.SlackBound); 1 degenerates to a barrier per cycle.
	// Result.Stats is bit-identical at every setting — message visibility is
	// gated on the config-derived slack horizon, never on the runtime epoch
	// length — so only the package tests set it, to prove exactly that. See
	// DESIGN.md "Bounded-slack ticking".
	slackWindow int
	// audit, when non-nil, receives the minimum cross-boundary latencies
	// actually observed during the run — the empirical floor the slack
	// property test checks the config-derived bound against. Package tests
	// only, like slackWindow.
	audit *latencyAudit
}

// Fixed memory-model parameters: the interconnect packet sizes of a store
// and of a fill request, and the per-warp memory-level-parallelism window
// (how many loads a warp may have in flight before it blocks).
const (
	storeBytes   = 32
	requestBytes = 8
	mlpPerWarp   = 2
)

// inflightFillsPerPartition sizes the memory system's cap on outstanding
// fill requests (finite L2/DRAM queueing): 128 per L2 partition. When the
// cap is reached, L1 miss queues back up and demand accesses suffer
// reservation fails — the congestion behaviour §2 attributes to miss-queue
// pressure.
const inflightFillsPerPartition = 128

// withDefaults returns opt with zero-valued tunables replaced by their
// defaults (shared by Engine.run and the white-box tests).
func (opt Options) withDefaults() Options {
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = 20_000_000
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = 1
	}
	if opt.Parallelism > 1 && runtime.GOMAXPROCS(0) == 1 && !opt.ForceParallelism {
		// One schedulable core: worker goroutines cannot overlap the engine,
		// they can only preempt it. Serial ticking computes identical results
		// (the equivalence matrices force the multi-worker path via
		// ForceParallelism to prove it), so degrade instead of paying the
		// barrier for nothing.
		opt.Parallelism = 1
	}
	if max := opt.Config.NumSM + opt.Config.L2Partitions; opt.Parallelism > max {
		opt.Parallelism = max
	}
	return opt
}

// Result carries the outcome of a run.
type Result struct {
	Stats stats.Sim   // aggregated over SMs, plus global counters
	PerSM []stats.Sim // per-SM counters
	Slack SlackInfo   // resolved bounded-slack parameters the run used
}

// engine is the live simulation state: the memory side (interconnect, L2
// partitions, DRAM, in-flight message queues) plus one shard per SM. The
// engine goroutine owns everything during the serial phases of a cycle;
// during the parallel phase it owns only the memory side while each shard's
// tick owns that shard.
type engine struct {
	cfg config.GPU
	opt Options

	// Application launch state (see launch.go): the machine below survives
	// across runs and launches; everything here is rebuilt by loadApp.
	launches  []launchRun
	pendingLn int     // launches not yet activated
	wakeAt    []int64 // matured launch-scheduler wake cycles, ascending
	// smBusy is per-SM launch ownership (-1: free); smAttr/smBase are the
	// stat-attribution window per SM — the launch the counters accrue to
	// and the snapshot the delta is taken against (launch.go claimSMs).
	smBusy []int
	smAttr []int
	smBase []stats.Sim

	cycle  int64
	net    *icntNet
	parts  []*memPartition
	shards []*shard
	// units is the barrier group's schedule: partitions [0, L2Partitions),
	// then shards. The serial paths iterate parts/shards directly.
	units []workUnit
	// crew is the persistent barrier-worker group, created on the first
	// parallel run and parked — not respawned — between runs, surviving Reset
	// and pool recycling. Reclaimed by closeCrew (Engine.Close, or reaper's
	// finalizer as a backstop). group aliases crew only while a run is
	// executing; the rest of the engine keys "is a parallel run active" off
	// group, so pointing it at the parked crew per run keeps those paths
	// unchanged.
	crew   *shardGroup
	group  *shardGroup
	reaper *crewReaper

	// partReqs are the SM→L2 ingress ports, one ring per L2 partition: fill
	// requests in flight across the request network, binned to their
	// partition at injection time (pushReq) and stamped with the arrival
	// cycle at the partition crossbar. Per-ring order is global injection
	// order restricted to that partition, which makes an epoch's due set a
	// per-ring prefix the route prefix-sum can count in O(#partitions).
	// reqsLen is the total queued across all rings.
	partReqs []icnt.Ingress[reqMsg]
	reqsLen  int
	// resps holds partition responses waiting for response-network
	// bandwidth, ordered by data-ready cycle.
	resps respHeap
	// stores is the merged write-through store queue, in (cycle, smID, seq)
	// order; a store issued at cycle p becomes sendable at p + horizon.
	stores []storeMsg
	// routed is the per-epoch response slot array: planRoute's prefix-sum
	// assigns each partition a contiguous slot range in global arrival order
	// (see planRoute for why partition-major ranges preserve it), the owning
	// partition's tick span writes each computed response into its slot, and
	// the epoch merge pushes slots in range order — replaying through the
	// heap in the exact sequence the serial-arrival engine produced, so heap
	// tie-breaking (and thus every downstream statistic) is unchanged.
	routed []resp
	// Scatter scratch for the parallel store merge (mergeStores): the active
	// shards of the epoch being merged, the destination window in stores, and
	// the epoch start — published before the scatter wave, consumed by
	// runTask.
	scatterShards []*shard
	scatterDst    []storeMsg
	scatterFrom   int64
	// ctaOr is the merge phase's OR-accumulator over eligible launches'
	// CTA-completion bitsets (one bit per epoch sub-cycle), recycled across
	// epochs.
	ctaOr epochBits

	ageCtr      int64
	inflight    int   // outstanding fill requests in the memory system
	maxInflight int   // cap on inflight: inflightFillsPerPartition × L2Partitions
	skipped     int64 // cycles elided by event-driven fast-forwarding

	// inflightRel defers in-flight capacity releases: a delivered fill frees
	// its slot horizon−turnaround cycles after delivery. The pull charges
	// capacity at stamp+horizon, but the modeled injection happened at
	// stamp+turnaround; stretching the release by the same difference keeps
	// each request's occupancy window at its modeled length (injection to
	// delivery), so the maxInflight cap binds with per-cycle-model
	// pressure instead of evaporating at wide horizons. Entries are in
	// ascending release order (deliveries are processed in cycle order).
	inflightRel []capRelease

	// Bounded-slack epoch state (DESIGN.md "Bounded-slack ticking").
	//
	// horizon is the visibility delay applied to miss-queue injection —
	// the full config.SlackBound, a pure function of the config. turn is
	// the turnaround delay applied to store sends, CTA redispatch and
	// launch wakes: min(horizon, TurnaroundCap), also config-pure. slackMax
	// is the runtime epoch-length cap — the slackWindow option resolved
	// into [1, horizon]. Statistics depend on horizon and turn only, never
	// on where epoch boundaries fall, which is what makes every window
	// setting bit-identical.
	horizon  int64
	turn     int64
	slackMax int64
	// slackOK is the production conflict fallback: a merged response whose
	// ready cycle lands inside its own epoch (provably impossible, see the
	// mergeEpoch assert) clears it, degrading all later epochs to length 1.
	slackOK    bool
	slackInfo  SlackInfo // resolved slack parameters, surfaced in Result
	epochStart int64     // first sub-cycle of the epoch being ticked
	utilSnap   []float64 // per-sub-cycle response-network utilization snapshots
	// respSeq is the global arrival stamp, assigned at injection (pushReq);
	// each request's response inherits it, so heap ordering equals serial
	// arrival order no matter what order the merge pushes slots in.
	respSeq    int64
	dispatchAt []int64 // matured CTA-redispatch cycles, ascending
	minReqLat  int64   // smallest observed request-delivery latency (audit)
	minRespLat int64   // smallest observed response-delivery latency (audit)

	shStats *stats.Shards
	// memStats holds one counter block per L2 partition; totals are
	// partition-count and merge-order invariant (stats property tests).
	memStats *stats.MemParts
	prof     *profiling.Phases // nil unless Options.PhaseProfile is set
}

// Run simulates the kernel under the given options and returns aggregated
// statistics. Each call constructs a fresh engine; callers that simulate
// repeatedly should hold an Engine (or draw from a pool of them) to recycle
// the construction cost.
func Run(k *trace.Kernel, opt Options) (*Result, error) {
	var en Engine
	defer en.Close() // one-shot run: don't leave a parked crew to the finalizer
	return en.Run(k, opt)
}

// newMachine allocates the persistent machine — SM shards, L2 partitions,
// interconnect, barrier schedule, stat arenas — whose shape depends only on
// the config — the engine's one constructor. Launch state (kernels, CTA
// cursors, SM ownership) is installed separately by loadApp and rebuilt on
// every run.
func newMachine(opt Options) *engine {
	cfg := opt.Config
	e := &engine{
		cfg:         cfg,
		opt:         opt,
		net:         newIcntNet(cfg),
		shStats:     stats.NewShards(cfg.NumSM),
		maxInflight: inflightFillsPerPartition * cfg.L2Partitions,
	}
	e.memStats = stats.NewMemParts(cfg.L2Partitions)
	e.parts = make([]*memPartition, cfg.L2Partitions)
	for i := range e.parts {
		e.parts[i] = newMemPartition(i, cfg, e.memStats.Part(i))
	}
	e.shards = make([]*shard, cfg.NumSM)
	for i := range e.shards {
		var pf prefetch.Prefetcher
		if opt.NewPrefetcher != nil {
			pf = opt.NewPrefetcher(i)
		}
		s := newSM(i, cfg, pf, e.shStats.Shard(i))
		s.env = &smEnv{eng: e, sm: s}
		e.shards[i] = newShard(s)
	}
	e.units = make([]workUnit, 0, len(e.parts)+len(e.shards))
	for _, p := range e.parts {
		e.units = append(e.units, p)
	}
	for _, sh := range e.shards {
		e.units = append(e.units, sh)
	}
	e.partReqs = make([]icnt.Ingress[reqMsg], cfg.L2Partitions)
	e.smBusy = make([]int, cfg.NumSM)
	e.smAttr = make([]int, cfg.NumSM)
	e.smBase = make([]stats.Sim, cfg.NumSM)
	e.initSlack()
	e.reaper = &crewReaper{}
	runtime.SetFinalizer(e.reaper, (*crewReaper).stop)
	return e
}

// crewReaper is the backstop for the persistent crew: an engine dropped
// without Close (tests, one-shot callers, pool discards) must not leak its
// parked workers. The finalizer sits on this handle, not on the engine: the
// engine lies on the cycle engine → shard → sm → smEnv → engine, and the
// runtime never frees a cycle that carries a finalizer. The handle points
// only at the crew, which points at nothing else, so a dropped engine is
// collected and the handle's finalizer then stops its workers.
type crewReaper struct{ crew *shardGroup }

func (r *crewReaper) stop() {
	if r.crew != nil {
		r.crew.stop()
		r.crew = nil
	}
}

// closeCrew stops and forgets the persistent barrier crew, if one exists.
// Idempotent.
func (e *engine) closeCrew() {
	if e.crew != nil {
		e.crew.stop()
		e.crew = nil
	}
	e.reaper.crew = nil
}

// partOf maps a line address to its L2 partition. Interleaving is at DRAM
// row granularity so a whole row stays within one partition (preserving row
// locality), with XOR folding so power-of-two strides spread across
// partitions instead of camping on a few.
func (e *engine) partOf(lineAddr uint64) int {
	row := lineAddr / uint64(e.cfg.DRAMRowBytes)
	return int((row ^ (row >> 3) ^ (row >> 6) ^ (row >> 9)) % uint64(len(e.parts)))
}

// ctxCheckInterval is how often (in cycles) the engine polls for
// cancellation; a power of two so the check is a cheap mask.
const (
	ctxCheckShift    = 12
	ctxCheckInterval = 1 << ctxCheckShift
)

// deadlockIdleCycles is how many consecutive no-progress, no-traffic cycles
// the engine tolerates before declaring a deadlock.
const deadlockIdleCycles = 1_000_000

// run executes the epoch loop. Every executed epoch — a span of up to
// slackMax consecutive cycles between two barriers — has the same shape:
//
//	serial drain phase:  for each sub-cycle in order: net.tick → response
//	                     sends (with L2 installs deferred into partition
//	                     bins) → fill delivery into shard inboxes → request
//	                     injection (pull, smID order, horizon-matured heads
//	                     only, binned to the owning partition's ingress ring
//	                     and stamped with the global arrival rank at push) →
//	                     matured stores → utilization snapshot
//	route phase:         O(#partitions) prefix-sum over the per-ring due
//	                     counts assigns each partition a zero-copy due view
//	                     and a contiguous response slot range (planRoute)
//	parallel phase:      every work unit ticks the whole span, concurrently
//	                     when Parallelism > 1 — partitions perform their due
//	                     L2 lookups, merges and DRAM timing, scattering
//	                     responses into their reserved slots; shards apply
//	                     fills, run prefetchers, issue, and count their
//	                     epoch store outputs per sub-cycle
//	serial merge phase:  response slots pushed in partition-major slot order
//	                     (each already carrying its global arrival seq, so
//	                     the heap replays serial arrival order) → store
//	                     merge via counting scatter into (cycle, smID, seq)
//	                     order → CTA-finish maturation → termination / idle /
//	                     fast-forward bookkeeping
//
// The serial phase runs a whole epoch ahead of the ticks; that is sound
// because every tick output is invisible to the serial phase for at least
// horizon cycles (min cross-boundary latency, config-derived), and every
// epoch is at most horizon cycles long. With a window of 1 the loop is
// exactly the per-cycle schedule.
func (e *engine) run() error {
	if e.opt.Parallelism > 1 {
		// Persistent crew: created on the first parallel run, parked between
		// runs, reused across Reset/pool recycling. Only a Parallelism change
		// (an engine recycled under different options) replaces it.
		if e.crew == nil || e.crew.n != e.opt.Parallelism {
			e.closeCrew()
			e.crew = startShardGroup(e.opt.Parallelism)
			e.reaper.crew = e.crew
		}
		e.group = e.crew
		defer func() { e.group = nil }()
	}
	e.prof = e.opt.PhaseProfile
	var clk phaseClock
	e.fillSMs()
	idle := int64(0)
	clk.start(e.prof)
	for e.cycle < e.opt.MaxCycles {
		start := e.cycle + 1
		// The lap at the top of the iteration closes the previous epoch's
		// merge phase: every continue path below re-enters here, so the
		// merge/bookkeeping tail is charged exactly once per executed epoch.
		clk.lap(profiling.PhaseMerge)
		e.applyWakes(start)
		e.applyDispatches(start)
		cur := e.slackMax
		if !e.slackOK {
			cur = 1
		}
		maxEnd := start + cur - 1
		if cur > e.turn {
			// Adaptive epoch cutter: stores and CTA retirements replay after
			// the turnaround delay, so the epoch may not extend past the
			// earliest cycle such an event could occur plus turn-1 (see
			// actBound). Windows ≤ turn are contained unconditionally.
			if t := e.actBound(start); t >= 0 {
				if lim := t + e.turn - 1; lim < maxEnd {
					maxEnd = lim
				}
			}
		}
		if maxEnd > e.opt.MaxCycles {
			maxEnd = e.opt.MaxCycles
		}
		if len(e.dispatchAt) > 0 && e.dispatchAt[0]-1 < maxEnd {
			// A matured CTA redispatch must land on an epoch start so the new
			// warps are visible to that whole epoch's ticks (and to its serial
			// phase), exactly as with per-cycle barriers.
			maxEnd = e.dispatchAt[0] - 1
		}
		if len(e.wakeAt) > 0 && e.wakeAt[0]-1 < maxEnd {
			// Launch-scheduler wakes land on epoch starts too, for the same
			// reason — an activated launch's first CTAs must be visible to a
			// whole epoch.
			maxEnd = e.wakeAt[0] - 1
		}
		end, err := e.serialPhase(start, maxEnd)
		if err != nil {
			return err
		}
		e.cycle = end
		e.epochStart = start
		clk.lap(profiling.PhaseSerialDrain)
		e.planRoute(end)
		clk.lap(profiling.PhaseSerialRoute)
		e.tickWave(start, end, &clk)
		if e.prof != nil {
			e.prof.AddEpoch(end - start + 1)
		}
		retiredLast := e.mergeEpoch(start, end)
		if e.finished() {
			break
		}
		msgs := e.inFlightMsgs()
		switch {
		case retiredLast || msgs > 0:
			idle = 0
		case end > start:
			// A multi-cycle epoch ends at its first zero-traffic sub-cycle
			// (the serial phase cuts there), so the serial engine's idle
			// counter — reset at end-1 by the in-flight traffic — would read
			// exactly 1 here.
			idle = 1
		default:
			// Zero-traffic epochs degenerate to a single cycle, so this
			// counts per cycle and the deadlock error (if it fires) lands on
			// the same cycle per-cycle execution reports it.
			idle++
			if idle > deadlockIdleCycles {
				return errors.New("sim: deadlock: no progress and no in-flight traffic")
			}
		}
		if e.opt.DisableSkip {
			continue
		}

		// Event-driven fast-forward: if no component can act before some
		// future cycle, jump there instead of idling through the gap. Every
		// elided cycle is provably a no-op (see nextInteresting and DESIGN.md
		// "Engine fast-forwarding"), except for three pieces of cycle-indexed
		// state that are advanced by the whole span at once: the stall
		// classification counters, the idle/deadlock counter, and the
		// interconnect's sliding windows (rolled forward by net.tick at the
		// next executed cycle).
		target := e.nextInteresting()
		if target >= 0 && target <= e.cycle+1 {
			continue
		}
		if msgs == 0 {
			// Idle-counting mode: stop where the deadlock guard would fire so
			// the error (if the target never arrives) lands on the same cycle
			// per-cycle execution reports it.
			if limit := e.cycle + (deadlockIdleCycles + 1 - idle); target < 0 || target > limit {
				target = limit
			}
		}
		if target > e.opt.MaxCycles+1 {
			target = e.opt.MaxCycles + 1
		}
		span := target - 1 - e.cycle
		if span <= 0 {
			continue
		}
		if e.opt.Context != nil {
			// The per-cycle loop polls for cancellation every ctxCheckInterval
			// cycles; preserve that wall-progress bound across jumps by
			// polling whenever the span crosses a poll boundary.
			if b := (e.cycle>>ctxCheckShift + 1) << ctxCheckShift; b < target {
				if err := e.opt.Context.Err(); err != nil {
					return fmt.Errorf("sim: aborted at cycle %d: %w", b, err)
				}
			}
		}
		for _, sh := range e.shards {
			// Warp states are frozen across the span, so each elided cycle
			// would have classified identically; the fruitless scheduler pass
			// of every elided cycle is replayed once (it is idempotent).
			sh.skipSpan(span)
		}
		if msgs == 0 {
			idle += span
		}
		e.skipped += span
		e.cycle = target - 1
	}
	clk.lap(profiling.PhaseMerge) // close the final cycle's merge segment
	if e.cycle >= e.opt.MaxCycles {
		return fmt.Errorf("sim: exceeded MaxCycles=%d", e.opt.MaxCycles)
	}
	return nil
}

// nextInteresting returns the earliest future cycle at which any engine
// component could possibly act, or -1 when nothing is pending at all (a
// deadlock unless MaxCycles intervenes). Every returned bound is
// conservative: cycles strictly between e.cycle and the returned value are
// guaranteed to replay the current cycle's no-op exactly, so they can be
// elided without changing any statistic. The candidates, mirroring the cycle
// loop's order:
//
//   - the earliest request arrival at the L2 partitions (arriveRequests);
//   - the earliest response send: its data-ready cycle and the response
//     network's backlog-drain cycle (drainResponses);
//   - the earliest fill delivery into a shard's inbox (deliverFills);
//   - the request network's backlog-drain cycle while stores are queued
//     (drainStores) or any shard's request port holds drainable demand
//     misses (drainMissQueues);
//   - the next cycle outright when a shard could trickle a staged prefetch
//     into its miss queue, or when its prefetcher does per-cycle work
//     that may not be elided (Snake while throttled: halted-cycle accounting
//     and hysteresis boundaries must fire cycle by cycle);
//   - each shard's earliest ready-warp wake-up (issue).
//
// Warps waiting on memory or barriers wake only through those same fills
// and issues, so they impose no separate bound.
func (e *engine) nextInteresting() int64 {
	cur := e.cycle
	// Invariant guard: a partition holding unprocessed binned work pins the
	// next cycle. Bins are always drained by the partition ticks of the
	// cycle that filled them, so this never fires at a real decision point —
	// it exists so fast-forwarding stays provably safe against future
	// restructurings of the cycle, not to encode a live bound.
	for _, p := range e.parts {
		if p.busy() {
			return cur + 1
		}
	}
	best := int64(-1)
	for i := range e.partReqs {
		if c := e.partReqs[i].NextCycle(); c >= 0 && (best < 0 || c < best) {
			best = c
		}
	}
	if r, ok := e.resps.peek(); ok {
		c := e.net.nextRespAccept(cur)
		if r.readyAt > c {
			c = r.readyAt
		}
		if best < 0 || c < best {
			best = c
		}
	}
	if len(e.stores) > 0 {
		// The head store (earliest by merge order) cannot cross before both
		// its maturity cycle and the request network's backlog drain.
		c := e.stores[0].cycle + e.horizon
		if a := e.net.nextReqAccept(cur); a > c {
			c = a
		}
		if best < 0 || c < best {
			best = c
		}
	}
	if len(e.dispatchAt) > 0 {
		if c := e.dispatchAt[0]; best < 0 || c < best {
			best = c
		}
	}
	if len(e.wakeAt) > 0 {
		// A pending launch activation is an engine act: the fast-forward may
		// not jump past the wake cycle.
		if c := e.wakeAt[0]; best < 0 || c < best {
			best = c
		}
	}
	for _, sh := range e.shards {
		if sh.mustTickNext(cur) {
			return cur + 1
		}
		if sh.sm.l1.PrefetchQueueLen() > 0 {
			// Staged prefetches behind a full miss queue: residency aging
			// un-fulls the queue with no engine action in between, and the
			// drain trickle resumes at that very cycle. Until then every
			// elided cycle's drain is a provable no-op (no pushes or pulls
			// happen while skipping, so fullness is pure aging).
			if r := sh.sm.l1.DemandQueueRelief(); r >= 0 && (best < 0 || r < best) {
				best = r
			}
		}
		if sh.hasQueuedReq() {
			if e.inflight < e.maxInflight {
				// The queue head pops no earlier than its maturity cycle and
				// the network's next acceptance.
				c := e.net.nextReqAccept(cur)
				if r := sh.nextReqReady(e.horizon); r > c {
					c = r
				}
				if best < 0 || c < best {
					best = c
				}
			} else if len(e.inflightRel) > 0 {
				// Blocked on the in-flight cap: a deferred capacity release
				// is the engine act that can unblock the pull. (With none
				// pending, capacity frees only via future deliveries, which
				// the fill and partition bounds already pin.)
				if c := e.inflightRel[0].at; best < 0 || c < best {
					best = c
				}
			}
		}
		if f := sh.nextFill(); f >= 0 && (best < 0 || f < best) {
			best = f
		}
		if w := sh.nextWake(); w >= 0 && (best < 0 || w < best) {
			best = w
		}
		if best >= 0 && best <= cur+1 {
			return cur + 1
		}
	}
	if best >= 0 && best < cur+1 {
		return cur + 1
	}
	return best
}

// fillSMs dispatches queued CTAs onto SMs with enough free slots: launches in
// App order, and within a launch one CTA per SM per pass over its shard set
// (round-robin, the occupancy-balancing discipline the single-kernel engine
// always had — for a one-launch App the dispatch sequence is identical).
func (e *engine) fillSMs() {
	for {
		progress := false
		for li := range e.launches {
			ln := &e.launches[li]
			if ln.state != lnRunning {
				continue
			}
			for _, sh := range ln.shards {
				if ln.ctaNext >= len(ln.kernel.CTAs) {
					break
				}
				need := len(ln.kernel.CTAs[ln.ctaNext].Warps)
				if sh.sm.freeSlots() >= need {
					sh.sm.dispatchCTA(ln.kernel, ln.ctaNext, &e.ageCtr)
					ln.ctaNext++
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}

// serialPhase executes the serial route phase for the sub-cycles
// [start, maxEnd] in order and returns the epoch's actual end: maxEnd, or
// the first sub-cycle at which no cross-boundary message remains in flight.
// Cutting there keeps the executed-cycle set identical to per-cycle
// execution — the kernel-finish cycle is always a zero-traffic cycle, so the
// epoch can never tick past it — at the cost of degenerating to one-cycle
// epochs during compute-only stretches.
//
// Everything here reads only pre-epoch state plus this phase's own earlier
// sub-cycles: tick outputs are invisible for at least horizon cycles (miss
// queue and store stamps mature at +horizon, partition responses are ready
// no earlier than +L2 latency ≥ +horizon), and maxEnd < start + horizon.
func (e *engine) serialPhase(start, maxEnd int64) (int64, error) {
	e.utilSnap = e.utilSnap[:0]
	for c := start; ; c++ {
		if e.opt.Context != nil && c&(ctxCheckInterval-1) == 0 {
			if err := e.opt.Context.Err(); err != nil {
				return 0, fmt.Errorf("sim: aborted at cycle %d: %w", c, err)
			}
		}
		e.net.tick(c)
		e.drainResponses(c)
		e.deliverFills(c)
		e.releaseInflight(c)
		e.drainMissQueues(c)
		e.drainStores(c)
		if c == start {
			// Hoisted first-sub-cycle prefetch drain: entries drained at c
			// are stamped c-1 (cache.L1.DrainPrefetch keeps their per-cycle
			// injection eligibility), so a drain inside the tick span's
			// first sub-cycle would mature at start-1+horizon — inside a
			// full-horizon epoch. Running that one drain here, serially,
			// after this sub-cycle's injection pull — the same
			// drain-after-pull order per-cycle execution has — removes the
			// early stamp from the span and lets epochs reach the full
			// horizon. Drains at later sub-cycles mature at ≥ start+horizon
			// and stay tick-side.
			for _, sh := range e.shards {
				// The drain's Full check must see this sub-cycle's occupancy:
				// advance the residency clock to start with zero credit (every
				// entry pulled in earlier epochs has expired by now — pulls
				// happen at stamp+horizon ≥ stamp+turnaround).
				sh.sm.l1.SetMissQueueClock(c, 0)
				sh.sm.l1.DrainPrefetch(c)
				sh.predrained = true
			}
		}
		e.utilSnap = append(e.utilSnap, e.net.utilization())
		if c >= maxEnd || e.predictedMsgs() == 0 {
			return c, nil
		}
	}
}

// predictedMsgs is the serial phase's view of inFlightMsgs at the end of a
// sub-cycle: requests crossing the network or queued for this epoch's
// partition ticks (both live in the partition ingress rings until the epoch
// merge consumes them), responses awaiting bandwidth, and fills not yet
// delivered. It equals exactly what inFlightMsgs reports after the cycle's
// ticks and merge under per-cycle barriers: ticks consume the whole inbox
// (so delivered-but-unconsumed fills don't count), and tick outputs (miss
// queue entries, stores) are not messages until the serial phase injects
// them.
func (e *engine) predictedMsgs() int {
	n := e.reqsLen + len(e.resps)
	for _, sh := range e.shards {
		n += sh.fills.Len()
	}
	return n
}

// pushReq injects a fill request into the memory side: the request is binned
// to its owning partition's ingress ring right here, at injection time, and
// stamped with the next global arrival rank (respSeq). Injection order is
// the deterministic smID-order pull of drainMissQueues, and arrival stamps
// are non-decreasing in that order (network sends serialize), so each ring
// is the global arrival order restricted to its partition — which is what
// lets planRoute locate an epoch's due set as a per-ring prefix instead of
// walking requests one by one.
func (e *engine) pushReq(arriveAt int64, req reqMsg) {
	e.respSeq++
	req.seq = e.respSeq
	e.partReqs[e.partOf(req.lineAddr)].Push(arriveAt, req)
	e.reqsLen++
}

// planRoute is the route phase, run once per epoch after the serial drain:
// an O(#partitions) prefix-sum over the per-ring due counts. Each partition
// gets a zero-copy view of its due prefix (every ring entry stamped ≤ end)
// and a contiguous slot range [slotBase, slotBase+dueN) in the epoch
// response array; its tick span computes responses into those slots, and
// mergeEpoch pushes the slots in partition-major order.
//
// Partition-major slot order is NOT global arrival order — but it does not
// need to be. The response heap's pop sequence is a pure function of the
// response set's (readyAt, seq) keys (see respHeap), and every response
// carries the global arrival seq its request was stamped with at injection,
// so the heap replays exactly the serial arrival order no matter how the
// slots were laid out. What the slot ranges must preserve — and do, by the
// per-ring prefix property — is each partition's own arrival order, which
// fixes its L2/DRAM access sequence.
//
// Responses computed for an arrival at sub-cycle c are never sendable before
// c + L2.Latency ≥ c + horizon — past the epoch end — so deferring their
// heap push to the epoch merge changes nothing (asserted there). Returns the
// epoch's total due-request count.
func (e *engine) planRoute(end int64) int {
	total := 0
	for i, p := range e.parts {
		a, b := e.partReqs[i].DueView(end)
		p.dueA, p.dueB = a, b
		p.slotBase = total
		p.dueN = len(a) + len(b)
		total += p.dueN
	}
	if total == 0 {
		return 0
	}
	if cap(e.routed) < total {
		// Grow geometrically; slots need no zeroing — every one is written by
		// exactly one partition before the merge reads it.
		c := 2 * cap(e.routed)
		if c < total {
			c = total
		}
		e.routed = make([]resp, total, c)
	}
	e.routed = e.routed[:total]
	for _, p := range e.parts {
		p.routed = e.routed
	}
	return total
}

// drainResponses sends ready memory responses back over the interconnect at
// sub-cycle c, stamping each with its delivery cycle and queueing it on the
// destination shard's ingress port. The L2 install for each shipped line is
// deferred into the owning partition's completes bin, applied at the same
// sub-cycle of its tick span (after that sub-cycle's accesses — the same
// relative order the serial engine had, see memPartition.tickSpan). Only
// pre-epoch responses can be due: in-epoch ones are ready past the epoch end.
func (e *engine) drainResponses(c int64) {
	lineBytes := e.cfg.Unified.LineSize
	for {
		r, ok := e.resps.peek()
		if !ok || r.readyAt > c {
			return
		}
		deliverAt, sent := e.net.trySendResp(lineBytes)
		if !sent {
			return
		}
		e.resps.pop()
		p := e.parts[r.part]
		p.completes = append(p.completes, partFill{lineAddr: r.lineAddr, cycle: c})
		e.shards[r.sm].fills.Push(deliverAt, fillMsg{lineAddr: r.lineAddr, prefetch: r.prefetch})
		if d := deliverAt - c; d < e.minRespLat {
			e.minRespLat = d
		}
	}
}

// capRelease is one deferred in-flight capacity release (see inflightRel).
type capRelease struct {
	at int64
	n  int
}

// deliverFills moves fills due at sub-cycle c into each shard's inbox (smID
// order) and schedules their in-flight capacity release: immediately when
// horizon equals the turnaround, deferred by the difference otherwise (see
// inflightRel).
func (e *engine) deliverFills(c int64) {
	n := 0
	for _, sh := range e.shards {
		n += sh.deliverDue(c)
	}
	if n == 0 {
		return
	}
	if d := e.horizon - e.turn; d > 0 {
		e.inflightRel = append(e.inflightRel, capRelease{at: c + d, n: n})
	} else {
		e.inflight -= n
	}
}

// releaseInflight applies the deferred capacity releases due at or before
// sub-cycle c, compacting the queue in place so its backing array is reused.
func (e *engine) releaseInflight(c int64) {
	n := 0
	for n < len(e.inflightRel) && e.inflightRel[n].at <= c {
		e.inflight -= e.inflightRel[n].n
		n++
	}
	if n > 0 {
		m := copy(e.inflightRel, e.inflightRel[n:])
		e.inflightRel = e.inflightRel[:m]
	}
}

// missInjectPerSM is how many outgoing fill requests each SM may inject into
// the request network per cycle.
const missInjectPerSM = 3

// drainMissQueues pulls outgoing fill requests from each shard's request
// port at sub-cycle c, up to missInjectPerSM per SM per cycle, subject to
// the in-flight cap (downstream queue capacity). Only heads that matured
// past the slack horizon are candidates: a request staged at cycle p is
// injectable from p + horizon, so requests staged by the current epoch's
// ticks are never pulled by its own serial phase. The pull order — shards in
// smID order — is the deterministic merge order of the SM→memory request
// stream. Each pull records the entry's residency expiry in the shard's
// schedule (shard.popReq), which the tick span replays as phantom
// miss-queue occupancy.
func (e *engine) drainMissQueues(c int64) {
	for _, sh := range e.shards {
		for k := 0; k < missInjectPerSM; k++ {
			if e.inflight >= e.maxInflight {
				return
			}
			if !sh.peekReq(c, e.horizon) {
				break
			}
			deliverAt, sent := e.net.trySendReq(requestBytes)
			if !sent {
				return
			}
			req, _ := sh.popReq()
			e.inflight++
			// The horizon is modeled as the front segment of the network
			// traversal: the request spent horizon-1 cycles of its interconnect
			// latency maturing in the miss queue, so its remaining flight is
			// that much shorter and the end-to-end inject→arrival latency
			// equals the per-cycle engine's. Sound because IcntLatency ≥
			// horizon (the slack audit's interconnect term), so arrival stays
			// strictly in the future.
			arriveAt := deliverAt - (e.horizon - 1)
			e.pushReq(arriveAt, req)
			if d := arriveAt - c; d < e.minReqLat {
				e.minReqLat = d
			}
		}
	}
}

// drainStores sends matured write-through store traffic at low priority: a
// store issued during a tick at cycle p crosses the network no earlier than
// p + horizon — the same visibility delay as fill requests, so the two
// request-direction traffic classes stay phase-aligned and their bandwidth
// contention matches the per-cycle model's (both shifted uniformly; the
// network's budget is time-invariant). Fire-and-forget: nothing downstream
// observes a store's send cycle, so the shift is latency-neutral. The queue
// is in (cycle, smID, seq) merge order, so maturity is a prefix property.
func (e *engine) drainStores(c int64) {
	n := 0
	for n < len(e.stores) && e.stores[n].cycle+e.horizon <= c {
		if _, sent := e.net.trySendReq(storeBytes); !sent {
			break
		}
		n++
	}
	if n > 0 {
		// Compact in place rather than re-slicing (e.stores = e.stores[n:]):
		// re-slicing strands the consumed prefix of the backing array, so
		// append would grow a fresh array every time the queue cycled through
		// its capacity instead of reusing the existing one.
		m := copy(e.stores, e.stores[n:])
		e.stores = e.stores[:m]
	}
}

// tickWave runs the parallel phase of the epoch: every work unit ticks the
// sub-cycles [start, end] (memory partitions drain their request/complete
// bins, shards apply fills and issue), on the worker group when one is
// running.
//
// Normally partitions and shards tick as one wave — they touch disjoint
// state, so no ordering between them is needed. When phase profiling is on,
// the wave splits in two so partition and shard wall clocks are separable;
// the split cannot change results (same disjointness).
func (e *engine) tickWave(start, end int64, clk *phaseClock) {
	np := len(e.parts)
	switch {
	case e.prof != nil:
		if e.group != nil {
			e.group.runSpan(e.units, start, end, 0, np)
		} else {
			for _, p := range e.parts {
				p.tickSpan(start, end)
			}
		}
		clk.lap(profiling.PhaseMemPartitions)
		if e.group != nil {
			e.group.runSpan(e.units, start, end, np, len(e.units))
		} else {
			for _, sh := range e.shards {
				sh.tickSpan(start, end)
			}
		}
		clk.lap(profiling.PhaseShards)
	case e.group != nil:
		e.group.runSpan(e.units, start, end, 0, len(e.units))
	default:
		for _, u := range e.units {
			u.tickSpan(start, end)
		}
	}
}

// mergeEpoch performs the serial merges closing the epoch [start, end]:
// partition responses are pushed in partition-major slot order (each already
// carrying the global arrival seq its request was stamped with at injection,
// so heap ordering is independent of push order and of epoch shape), the
// consumed due prefixes are dropped from the partition ingress rings, egress
// store streams are merged into (cycle, smID, seq) order by a counting
// scatter (mergeStores), and CTA finishes are queued for redispatch at
// +turnaround. Returns whether any shard retired an instruction at the final
// sub-cycle — the only per-cycle retire bit the idle bookkeeping still needs
// (earlier sub-cycles all carried in-flight traffic, which resets the
// counter regardless).
func (e *engine) mergeEpoch(start, end int64) bool {
	for i := range e.routed {
		r := e.routed[i]
		if r.readyAt <= end {
			// Provably unreachable: every partition response is ready no
			// earlier than arrival + L2.Latency ≥ arrival + horizon > end.
			e.slackConflict(r.readyAt, end)
		}
		e.resps.push(r)
	}
	e.routed = e.routed[:0]
	for i, p := range e.parts {
		if p.dueN > 0 {
			e.partReqs[i].Drop(p.dueN)
			e.reqsLen -= p.dueN
			p.dueN = 0
		}
	}

	e.mergeStores(start, end)
	for _, sh := range e.shards {
		sh.mqExpiry = sh.mqExpiry[:0]
	}

	// CTA maturation: a CTA finishing at sub-cycle f frees its warp slots for
	// redispatch at f + turnaround — an epoch start by construction (run
	// caps epochs at the earliest matured dispatch), so the refill is
	// visible to a whole epoch exactly as under per-cycle barriers. Skipped
	// once no running launch holds undispatched CTAs: maturation would only
	// cap future epochs for a guaranteed no-op fillSMs. Only completions on
	// the SMs of a launch with remaining CTAs matter — a slot freed on
	// another launch's SMs can never host them; OR-ing the eligible
	// launches' shard bitsets gives exactly the sub-cycles at which one
	// dispatch event is due (at most one per sub-cycle, as with per-cycle
	// barriers).
	if e.moreCTAs() {
		words := int((end-start)>>6) + 1
		e.ctaOr.reset(words)
		any := false
		for li := range e.launches {
			ln := &e.launches[li]
			if ln.state != lnRunning || ln.ctaNext >= len(ln.kernel.CTAs) {
				continue
			}
			for _, sh := range ln.shards {
				if sh.report.cta.orInto(e.ctaOr) {
					any = true
				}
			}
		}
		if any {
			for w, bitsW := range e.ctaOr {
				for bitsW != 0 {
					i := int64(w)<<6 + int64(bits.TrailingZeros64(bitsW))
					bitsW &= bitsW - 1
					at := start + i + e.turn
					if at <= end {
						// Unreachable: the epoch cutter's exit lookahead
						// is armed whenever undispatched CTAs remain.
						e.slackConflict(at, end)
					}
					e.dispatchAt = append(e.dispatchAt, at)
				}
			}
		}
	}

	// Launch retirement: detected here, in the epoch whose ticks completed
	// the launch's last CTA (see launch.go retireScan).
	e.retireScan(start, end)

	last := end - start
	for _, sh := range e.shards {
		if sh.report.retired.test(last) {
			return true
		}
	}
	return false
}

// scatterParallelMin is the epoch store count below which the parallel
// scatter is not worth a barrier wave: a few hundred 32-byte copies cost
// less than waking the crew.
const scatterParallelMin = 256

// mergeStores merges the epoch's per-shard egress store streams into the
// global queue in (cycle, smID, seq) order — exactly the order per-cycle
// barriers would have appended — via a counting scatter instead of a serial
// (span × shards) walk:
//
//	pass 1 (parallel):  each shard counted its stores per sub-cycle into
//	                    storeCnt during its tick span (shard.tickSpan)
//	pass 2 (serial):    a cycle-major, shard-minor prefix-sum over the
//	                    active shards' counts turns each (cycle, shard)
//	                    count into that group's first destination offset,
//	                    stored back in place — O(span × active shards)
//	                    bookkeeping, no per-store work
//	pass 3 (parallel):  each shard scatters its (cycle-sorted, seq-ordered)
//	                    stream into its reserved, disjoint offsets
//	                    (shard.scatterStores), on the crew when the epoch
//	                    carries enough stores to pay for the wave
//
// Store-free epochs — the common case — exit at the active scan without
// touching anything.
func (e *engine) mergeStores(start, end int64) {
	active := e.scatterShards[:0]
	total := 0
	for _, sh := range e.shards {
		if n := len(sh.out.stores); n > 0 {
			if m := sh.out.stores[0].cycle + e.horizon; m <= end {
				// Provably unreachable: stores mature after the full horizon
				// and epochs never span more than the horizon, so no store
				// can mature inside its own epoch. The stream is
				// cycle-sorted, so checking its earliest entry covers it.
				e.slackConflict(m, end)
			}
			active = append(active, sh)
			total += n
		}
	}
	e.scatterShards = active
	if total == 0 {
		return
	}
	base := len(e.stores)
	e.stores = growStores(e.stores, base+total)
	off := int32(0)
	span := end - start + 1
	for ci := int64(0); ci < span; ci++ {
		for _, sh := range active {
			n := sh.storeCnt[ci]
			sh.storeCnt[ci] = off
			off += n
		}
	}
	e.scatterDst = e.stores[base:]
	e.scatterFrom = start
	if e.group != nil && len(active) > 1 && total >= scatterParallelMin {
		e.group.runTasks(e, len(active))
	} else {
		for i := range active {
			e.runTask(i)
		}
	}
	e.scatterDst = nil
}

// runTask implements taskRunner for the store-merge scatter wave: task i is
// shard i of the active set, whose destination offsets are disjoint from
// every other task's by the prefix-sum construction.
func (e *engine) runTask(i int) {
	e.scatterShards[i].scatterStores(e.scatterDst, e.scatterFrom)
}

// growStores extends s to length n, reusing capacity and growing the backing
// array geometrically — without the temporary slice that
// append(s, make([]storeMsg, k)...) would allocate on the hot path.
func growStores(s []storeMsg, n int) []storeMsg {
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	next := make([]storeMsg, n, c)
	copy(next, s)
	return next
}

// applyDispatches pops matured CTA-redispatch events due at the epoch start
// and refills freed SM slots. Events mature only at epoch starts (run caps
// each epoch at the earliest pending event), so the pop never lands
// mid-epoch.
func (e *engine) applyDispatches(start int64) {
	n := 0
	for n < len(e.dispatchAt) && e.dispatchAt[n] <= start {
		n++
	}
	if n > 0 {
		m := copy(e.dispatchAt, e.dispatchAt[n:])
		e.dispatchAt = e.dispatchAt[:m]
		e.fillSMs()
	}
}

// inFlightMsgs counts cross-boundary messages in flight: requests crossing
// to the L2 side, responses awaiting bandwidth, and fills not yet consumed
// by their shard.
func (e *engine) inFlightMsgs() int {
	n := e.reqsLen + len(e.resps)
	for _, sh := range e.shards {
		n += sh.pendingFills()
	}
	return n
}

// finished reports whether every launch has retired, all SMs have drained
// and no traffic is in flight. For a one-launch App this computes exactly
// the single-kernel predicate (the launch retires in the merge of the first
// epoch where its CTAs are exhausted and its SMs drained).
func (e *engine) finished() bool {
	for i := range e.launches {
		if e.launches[i].state != lnRetired {
			return false
		}
	}
	for _, sh := range e.shards {
		if !sh.sm.done() {
			return false
		}
	}
	return e.inFlightMsgs() == 0
}

// throttleReporter is implemented by prefetchers that track their halted
// cycles (Snake).
type throttleReporter interface {
	ThrottleCycles() int64
}

// result aggregates statistics (call once, after the final run).
func (e *engine) result() *Result {
	// Close the launch attribution windows before the end-of-run L1/throttle
	// accounting below, so per-launch stats cover execution windows only.
	e.finalizeLaunchStats()
	for i, sh := range e.shards {
		sh.sm.l1.FinishRun()
		if tr, ok := sh.sm.pf.(throttleReporter); ok {
			e.shStats.Shard(i).Pf.ThrottleCycles = tr.ThrottleCycles()
		}
	}
	// Copy the per-SM counters out of the shard accumulators: the Result must
	// stay valid after the engine is recycled for another run, which resets
	// the accumulators in place.
	perSM := make([]stats.Sim, e.shStats.Len())
	copy(perSM, e.shStats.Slice())
	for i := range perSM {
		perSM[i].Cycles = e.cycle
	}
	res := &Result{Stats: e.shStats.Total(), PerSM: perSM, Slack: e.slackInfo}
	res.Stats.Cycles = e.cycle
	res.Stats.IcntBytes = e.net.totalBytes()
	res.Stats.IcntPeakBytes = e.net.peakBytes(e.cycle)
	// Memory-side counters come from the per-partition arenas; the total is
	// invariant to the partition count and merge order (stats property
	// tests), and the per-SM blocks hold zeros for these fields.
	mem := e.memStats.Total()
	res.Stats.L2Hits += mem.L2Hits
	res.Stats.L2Misses += mem.L2Misses
	res.Stats.L2Merges += mem.L2Merges
	res.Stats.DRAMReads += mem.DRAMReads
	res.Stats.DRAMRowHits += mem.DRAMRowHits
	res.Stats.DRAMRowMisses += mem.DRAMRowMisses
	if a := e.opt.audit; a != nil {
		a.MinReqDelivery = e.minReqLat
		a.MinRespDelivery = e.minRespLat
		a.MinL2Response = latencyUnobserved
		for _, p := range e.parts {
			if p.minRespLat < a.MinL2Response {
				a.MinL2Response = p.minRespLat
			}
		}
	}
	return res
}

// smEnv adapts engine state to the prefetch.Env interface for one SM. The
// engine-side reads are of memory-side state that is frozen during the
// parallel phase (the serial phases mutate it, the barrier publishes it), so
// concurrent shard ticks may call them safely.
type smEnv struct {
	eng *engine
	sm  *sm
}

// Utilization implements prefetch.Env. During a tick span the live network
// counters are an epoch ahead of the shard's sub-cycle, so the read comes
// from the per-sub-cycle snapshots the serial phase recorded — each exactly
// the value a per-cycle barrier schedule would have exposed at that cycle.
// (Outside a normal epoch — white-box tests ticking shards directly — it
// falls back to the live value.)
func (v *smEnv) Utilization() float64 {
	if i := v.sm.nowCycle - v.eng.epochStart; i >= 0 && i < int64(len(v.eng.utilSnap)) {
		return v.eng.utilSnap[i]
	}
	return v.eng.net.utilization()
}

// FreeFraction implements prefetch.Env.
func (v *smEnv) FreeFraction() float64 { return v.sm.l1.FreeFraction() }

// ConfineL1 implements prefetch.Env.
func (v *smEnv) ConfineL1(until int64) { v.sm.l1.Confine(until) }
