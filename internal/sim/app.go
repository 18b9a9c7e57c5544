package sim

import (
	"snake/internal/stats"
)

// AppResult carries the outcome of an application (multi-launch) run: the
// usual aggregate Result plus per-launch records in App order and per-tenant
// rollups. Like Result.Stats, every field is bit-identical across skip,
// Parallelism and epoch-window settings.
type AppResult struct {
	Result
	Launches stats.Launches
	Tenants  []stats.Tenant
}

// appResult assembles the per-launch records (App order — the canonical
// merge discipline, like shards and partitions) on top of result().
func (e *engine) appResult() *AppResult {
	ar := &AppResult{Result: *e.result()}
	ar.Launches = make(stats.Launches, len(e.launches))
	for i := range e.launches {
		ln := &e.launches[i]
		st := ln.acc
		st.Cycles = ln.retire - ln.start
		ar.Launches[i] = stats.Launch{
			Index:       i,
			Kernel:      ln.kernel.Name,
			Tenant:      ln.tenant,
			StartCycle:  ln.start,
			RetireCycle: ln.retire,
			Stats:       st,
		}
	}
	ar.Tenants = ar.Launches.Tenants()
	return ar
}
