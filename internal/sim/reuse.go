package sim

import (
	"fmt"

	"snake/internal/prefetch"
	"snake/internal/trace"
)

// Engine is a reusable simulation engine. Its runs behave exactly like the
// package-level Run — same validation, same results, bit-identical
// statistics — but an Engine that has already completed a run with the same
// config.GPU reinitializes its arenas in place (warp contexts, caches, MSHR
// files, port rings, DRAM banks, statistics accumulators, scratch buffers)
// instead of reallocating them, which removes the per-run construction cost
// that dominates steady-state sweep traffic.
//
// The reuse contract mirrors the engine's other equivalence guarantees
// (serial/parallel, skip/no-skip): a recycled engine's Result must be
// bit-identical to a freshly constructed engine's, for any sequence of
// kernel and App runs under any options. The golden and pooled-equivalence
// matrices enforce it.
//
// An Engine is not safe for concurrent use; pool instances (see
// harness.EnginePool) to share them across workers.
type Engine struct {
	e *engine
	// tag is the Options.PrefetcherTag of the previous run.
	tag string
	// oneLaunch/oneApp wrap a bare kernel as a one-launch App without
	// allocating, so pooled kernel runs stay allocation-flat. They live
	// here, not on the machine, because validation reads them before the
	// first run has built one.
	oneLaunch [1]trace.KernelLaunch
	oneApp    trace.App
}

// NewEngine returns an engine with no state; its first run constructs
// everything, exactly as the package-level Run does.
func NewEngine() *Engine { return &Engine{} }

// Close releases the engine's persistent barrier crew — the parked worker
// goroutines its parallel runs reuse across Reset and pool recycling. Safe
// on engines that never ran in parallel and safe to call repeatedly; the
// Engine stays usable, the next parallel run simply starts a fresh crew.
// Engines dropped without Close are covered by a finalizer backstop, but
// long-lived holders (pools, services) should Close deterministically.
func (en *Engine) Close() {
	if en.e != nil {
		en.e.closeCrew()
	}
}

// Run simulates the kernel as the trivial one-launch App, recycling the
// engine's arenas when the config matches the previous run.
func (en *Engine) Run(k *trace.Kernel, opt Options) (*Result, error) {
	en.oneLaunch[0] = trace.KernelLaunch{Kernel: k}
	en.oneApp = trace.App{Name: k.Name, Launches: en.oneLaunch[:]}
	if err := en.run(&en.oneApp, opt); err != nil {
		return nil, err
	}
	return en.e.result(), nil
}

// RunApp simulates an application: launches dispatch when their
// dependencies retire and their SM mask is free, tenants on disjoint masks
// run concurrently through the shared memory system, and
// Options.ChainPersistence decides whether prefetcher (Snake chain-table)
// state carries across launch boundaries. Kernel and App runs may interleave
// freely on one Engine — the machine is shared, the launch state is rebuilt
// per run — with results bit-identical to fresh engines either way.
func (en *Engine) RunApp(a *trace.App, opt Options) (*AppResult, error) {
	if err := en.run(a, opt); err != nil {
		return nil, err
	}
	return en.e.appResult(), nil
}

// run is the one run path behind every entry point: validate, apply
// defaults (the runaway guard scales with the launch count), recycle the
// machine when the config matches or build a new one, load the App's launch
// state, and execute.
func (en *Engine) run(a *trace.App, opt Options) error {
	if err := validateApp(a, opt); err != nil {
		return err
	}
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = 20_000_000 * int64(len(a.Launches))
	}
	opt = opt.withDefaults()
	if en.e != nil && en.e.cfg == opt.Config {
		reusePf := opt.PrefetcherTag != "" && opt.PrefetcherTag == en.tag
		en.e.reinitApp(opt, reusePf)
	} else {
		if en.e != nil {
			en.e.closeCrew() // don't leave the replaced engine's crew to the finalizer
		}
		en.e = newMachine(opt)
	}
	en.tag = opt.PrefetcherTag
	en.e.loadApp(a)
	return en.e.run()
}

// validateApp performs the pre-flight checks every run shares: the context
// is live, the App and config are structurally valid, every CTA fits an SM
// and every SM mask names existing SMs.
func validateApp(a *trace.App, opt Options) error {
	if opt.Context != nil {
		if err := opt.Context.Err(); err != nil {
			return fmt.Errorf("sim: aborted before start: %w", err)
		}
	}
	if err := a.Validate(); err != nil {
		return err
	}
	if err := opt.Config.Validate(); err != nil {
		return err
	}
	for i, l := range a.Launches {
		for _, cta := range l.Kernel.CTAs {
			if len(cta.Warps) > opt.Config.MaxWarpsPerSM {
				return fmt.Errorf("sim: app %q launch %d CTA %d has %d warps, more than %d warp slots per SM",
					a.Name, i, cta.ID, len(cta.Warps), opt.Config.MaxWarpsPerSM)
			}
		}
		if l.SMMask != 0 {
			if opt.Config.NumSM > 64 {
				return fmt.Errorf("sim: app %q launch %d has an SM mask but NumSM=%d > 64",
					a.Name, i, opt.Config.NumSM)
			}
			if l.SMMask>>uint(opt.Config.NumSM) != 0 {
				return fmt.Errorf("sim: app %q launch %d SM mask %#x references SMs >= NumSM=%d",
					a.Name, i, l.SMMask, opt.Config.NumSM)
			}
		}
	}
	return nil
}

// reinitApp rewires a previously used engine for a new run, reusing every
// allocation whose shape depends only on the config (which the caller has
// checked is unchanged). With reusePf the shards keep their prefetcher
// instances and reset them; otherwise new instances come from
// opt.NewPrefetcher and each L1's storage organization is re-derived. The
// caller loads the launch state afterwards, once the machine is clean
// (loadApp's activation wave snapshots the freshly reset stat arenas).
func (e *engine) reinitApp(opt Options, reusePf bool) {
	e.opt = opt
	e.cycle = 0
	e.net.reset()
	for _, p := range e.parts {
		p.reset()
	}
	for i := range e.partReqs {
		e.partReqs[i].Reset()
	}
	e.reqsLen = 0
	e.resps = e.resps[:0]
	e.stores = e.stores[:0]
	e.routed = e.routed[:0]
	e.memStats.Reset()
	e.ageCtr = 0
	e.inflight = 0
	e.inflightRel = e.inflightRel[:0]
	e.skipped = 0
	e.dispatchAt = e.dispatchAt[:0]
	e.utilSnap = e.utilSnap[:0]
	// Slack parameters depend on opt (the epoch window may differ between
	// runs on the same config), and the conflict fallback must not leak
	// across runs.
	e.initSlack()
	e.shStats.Reset()
	for i, sh := range e.shards {
		var pf prefetch.Prefetcher
		if !reusePf && opt.NewPrefetcher != nil {
			pf = opt.NewPrefetcher(i)
		}
		sh.sm.reset(pf, reusePf)
		sh.reset()
	}
}
