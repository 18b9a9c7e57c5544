package stats

import "sort"

// Per-launch and per-tenant statistics for application (multi-kernel) runs.
// The engine attributes shard counters to launches at deterministic cycle
// boundaries (launch activations and end of run), so these records are
// bit-identical across Parallelism and epoch-window settings, like everything
// else in Result.

// Launch is one kernel launch's slice of an application run.
type Launch struct {
	Index  int    // position in App.Launches
	Kernel string // kernel name
	Tenant int
	// StartCycle is the cycle the launch scheduler activated the launch;
	// RetireCycle is the cycle its last CTA completed.
	StartCycle  int64
	RetireCycle int64
	// Stats holds the counters accrued on the launch's SMs from its
	// activation until the next launch claimed them (or the run ended).
	// Cycles is the launch's span (RetireCycle - StartCycle); memory-side
	// totals (L2, DRAM) stay global — the partitions are shared hardware.
	Stats Sim
}

// Launches is an application run's per-launch records, in App order.
type Launches []Launch

// Tenant aggregates the launches of one co-resident application instance.
type Tenant struct {
	ID       int
	Launches int
	Stats    Sim // merged launch stats; Cycles is the longest launch span
}

// Tenants rolls the launch records up by tenant ID, ascending.
func (ls Launches) Tenants() []Tenant {
	byID := make(map[int]*Tenant)
	var ids []int
	for i := range ls {
		l := &ls[i]
		t := byID[l.Tenant]
		if t == nil {
			t = &Tenant{ID: l.Tenant}
			byID[l.Tenant] = t
			ids = append(ids, l.Tenant)
		}
		t.Launches++
		t.Stats.Merge(&l.Stats)
	}
	sort.Ints(ids)
	out := make([]Tenant, 0, len(ids))
	for _, id := range ids {
		out = append(out, *byID[id])
	}
	return out
}

// Sub subtracts other from s, field by field — the counterpart of Merge for
// taking counter deltas between two snapshots of one accumulator. Unlike
// Merge, Cycles subtracts plainly (snapshots of a single accumulator carry
// comparable cycle values, there is no max semantics to preserve).
func (s *Sim) Sub(other *Sim) {
	s.Cycles -= other.Cycles
	s.Insts -= other.Insts
	s.Loads -= other.Loads
	s.Stores -= other.Stores
	for i := range s.L1 {
		s.L1[i] -= other.L1[i]
	}
	s.ResFailMissQueue -= other.ResFailMissQueue
	s.ResFailMSHR -= other.ResFailMSHR
	s.ResFailVictim -= other.ResFailVictim
	s.StallMemory -= other.StallMemory
	s.StallOther -= other.StallOther
	s.IcntBytes -= other.IcntBytes
	s.IcntPeakBytes -= other.IcntPeakBytes
	s.L2Hits -= other.L2Hits
	s.L2Misses -= other.L2Misses
	s.L2Merges -= other.L2Merges
	s.DRAMReads -= other.DRAMReads
	s.DRAMRowHits -= other.DRAMRowHits
	s.DRAMRowMisses -= other.DRAMRowMisses
	s.Pf.Issued -= other.Pf.Issued
	s.Pf.Dropped -= other.Pf.Dropped
	s.Pf.UsefulTimely -= other.Pf.UsefulTimely
	s.Pf.UsefulLate -= other.Pf.UsefulLate
	s.Pf.EarlyEvicted -= other.Pf.EarlyEvicted
	s.Pf.Unused -= other.Pf.Unused
	s.Pf.Transferred -= other.Pf.Transferred
	s.Pf.ThrottleCycles -= other.Pf.ThrottleCycles
	s.Pf.Covered -= other.Pf.Covered
	s.Pf.CoveredTimely -= other.Pf.CoveredTimely
}
