// Package sched implements warp schedulers. Each SM has several scheduler
// slices, each owning a subset of the SM's warps; every cycle a scheduler
// picks one ready warp to issue from.
//
// The Greedy-Then-Oldest (GTO) policy — the Table 1 default — keeps issuing
// from the same warp until it stalls, then falls back to the oldest ready
// warp. GTO's greediness is why Snake's Head table doubles its warp-ID and
// base-address columns (§3.1): a greedy scheduler can interleave two warps'
// load streams in a way that a single-entry head would lose.
package sched

import "snake/internal/config"

// Scheduler picks the next warp to issue among a scheduler slice's warps.
type Scheduler interface {
	// Pick returns the index (into slots) of the warp to issue at cycle, or
	// -1 if none is ready. slots lists the slice's warp slots; the warp at
	// slots[i] is issuable when readyAt[slots[i]] <= cycle, so readiness is
	// read in place from the SM's per-slot readiness cycles. age[i] is
	// slots[i]'s monotonically increasing assignment stamp (smaller =
	// older).
	Pick(slots []int, readyAt []int64, cycle int64, age []int64) int
	// Idle is the fast path for a cycle with no issuable warp: it must leave
	// the scheduler in exactly the state a Pick over a non-empty slots list
	// with no warp ready would (GTO forgets its greedy warp; LRR and Oldest
	// are untouched). Callers use it to skip the readiness scan altogether.
	Idle()
	// Reset restores the scheduler to its just-constructed state, so a
	// recycled SM starts a new run with exactly the policy state a fresh New
	// would give it.
	Reset()
	// Name returns the policy name.
	Name() string
}

// New returns a scheduler implementing the given policy.
func New(policy config.SchedulerPolicy) Scheduler {
	switch policy {
	case config.SchedLRR:
		return &lrr{}
	case config.SchedOldest:
		return &oldest{}
	default:
		return &gto{last: -1}
	}
}

// gto is Greedy-Then-Oldest.
type gto struct {
	last int
}

func (g *gto) Name() string { return string(config.SchedGTO) }

func (g *gto) Pick(slots []int, readyAt []int64, cycle int64, age []int64) int {
	if g.last >= 0 && g.last < len(slots) && readyAt[slots[g.last]] <= cycle {
		return g.last
	}
	g.last = pickOldest(slots, readyAt, cycle, age)
	return g.last
}

// Idle implements Scheduler: with no ready warp, Pick's scan finds nothing
// and clears the greedy pointer.
func (g *gto) Idle() { g.last = -1 }

// Reset implements Scheduler.
func (g *gto) Reset() { g.last = -1 }

// lrr is loose round-robin.
type lrr struct {
	next int
}

func (l *lrr) Name() string { return string(config.SchedLRR) }

// Idle implements Scheduler: a fruitless round-robin scan leaves next as is.
func (l *lrr) Idle() {}

// Reset implements Scheduler.
func (l *lrr) Reset() { l.next = 0 }

func (l *lrr) Pick(slots []int, readyAt []int64, cycle int64, _ []int64) int {
	n := len(slots)
	if n == 0 {
		return -1
	}
	for off := 0; off < n; off++ {
		i := (l.next + off) % n
		if readyAt[slots[i]] <= cycle {
			l.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// oldest always picks the oldest ready warp.
type oldest struct{}

func (oldest) Name() string { return string(config.SchedOldest) }

// Idle implements Scheduler: oldest is stateless.
func (oldest) Idle() {}

// Reset implements Scheduler.
func (oldest) Reset() {}

func (oldest) Pick(slots []int, readyAt []int64, cycle int64, age []int64) int {
	return pickOldest(slots, readyAt, cycle, age)
}

// pickOldest returns the index of the oldest ready warp in slots, or -1;
// the lowest index wins an age tie.
func pickOldest(slots []int, readyAt []int64, cycle int64, age []int64) int {
	pick := -1
	for i, slot := range slots {
		if readyAt[slot] <= cycle && (pick < 0 || age[i] < age[pick]) {
			pick = i
		}
	}
	return pick
}
