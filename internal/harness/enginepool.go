package harness

import (
	"sync"

	"snake/internal/config"
	"snake/internal/sim"
	"snake/internal/trace"
)

// EnginePool recycles sim.Engine instances across runs. Engines are pooled
// per (config.GPU, tag) shape so a checked-out engine's arenas always match
// the requested configuration and — when the tag is non-empty — its retained
// prefetcher instances match the requested mechanism; a run drawn from the
// pool reinitializes those arenas in place instead of reallocating them.
//
// The tag becomes the run's sim.Options.PrefetcherTag, with that field's
// contract: it must uniquely identify the prefetcher factory's configuration
// (the mechanism registry name is the canonical choice), and the empty tag
// always constructs prefetchers fresh.
// Pooling is transparent to results: the sim package guarantees recycled
// engines produce bit-identical statistics.
type EnginePool struct {
	mu    sync.Mutex
	pools map[engineKey]*sync.Pool
}

// engineKey is one pool's shape. config.GPU is a comparable value type, so
// the full configuration participates in the key directly.
type engineKey struct {
	cfg config.GPU
	tag string
}

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	return &EnginePool{pools: make(map[engineKey]*sync.Pool)}
}

// sharedEngines is the process-wide pool the runner and the snaked service
// default to, so their steady-state traffic shares one set of warm arenas.
var sharedEngines = NewEnginePool()

// SharedEnginePool returns the process-wide engine pool.
func SharedEnginePool() *EnginePool { return sharedEngines }

// Run simulates the kernel on a pooled engine and returns the engine to the
// pool afterwards. Engines are returned even after failed runs — the sim
// package's reinitialization path handles arbitrary dirty state.
func (p *EnginePool) Run(k *trace.Kernel, opt sim.Options, tag string) (*sim.Result, error) {
	sp := p.pool(engineKey{cfg: opt.Config, tag: tag})
	en, _ := sp.Get().(*sim.Engine)
	if en == nil {
		en = sim.NewEngine()
	}
	opt.PrefetcherTag = tag
	res, err := en.Run(k, opt)
	sp.Put(en)
	return res, err
}

// RunApp simulates the application on a pooled engine and returns the engine
// to the pool afterwards. Apps and single kernels share the same pools: the
// engine's persistent machine is shaped by the configuration alone, and the
// launch state rebuilds per run, so a kernel run can recycle an app run's
// engine and vice versa.
func (p *EnginePool) RunApp(a *trace.App, opt sim.Options, tag string) (*sim.AppResult, error) {
	sp := p.pool(engineKey{cfg: opt.Config, tag: tag})
	en, _ := sp.Get().(*sim.Engine)
	if en == nil {
		en = sim.NewEngine()
	}
	opt.PrefetcherTag = tag
	res, err := en.RunApp(a, opt)
	sp.Put(en)
	return res, err
}

func (p *EnginePool) pool(key engineKey) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp, ok := p.pools[key]
	if !ok {
		sp = &sync.Pool{}
		p.pools[key] = sp
	}
	return sp
}
