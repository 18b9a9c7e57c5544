package sched

import (
	"testing"

	"snake/internal/config"
)

// Readiness is read in place: the warp at slots[i] is ready at cycle when
// readyAt[slots[i]] <= cycle. The cases below run at cycle now, with ready
// warps at readyNow and stalled ones at stalled.
const (
	now      = int64(100)
	readyNow = now
	stalled  = now + 1
)

// identity returns the slots list 0..n-1.
func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestGTOGreediness(t *testing.T) {
	s := New(config.SchedGTO)
	slots := identity(3)
	readyAt := []int64{readyNow, readyNow, readyNow}
	age := []int64{3, 1, 2}
	// First pick: oldest (index 1).
	if got := s.Pick(slots, readyAt, now, age); got != 1 {
		t.Fatalf("first pick = %d, want 1 (oldest)", got)
	}
	// Greedy: keeps picking 1 while ready.
	if got := s.Pick(slots, readyAt, now, age); got != 1 {
		t.Fatalf("greedy pick = %d, want 1", got)
	}
	// 1 stalls: falls back to oldest ready (index 2, age 2).
	readyAt[1] = stalled
	if got := s.Pick(slots, readyAt, now, age); got != 2 {
		t.Fatalf("fallback pick = %d, want 2", got)
	}
	// 1 becomes ready again but GTO sticks with its new greedy warp.
	readyAt[1] = readyNow
	if got := s.Pick(slots, readyAt, now, age); got != 2 {
		t.Fatalf("post-switch pick = %d, want 2 (greedy)", got)
	}
}

func TestGTONoneReady(t *testing.T) {
	s := New(config.SchedGTO)
	if got := s.Pick(identity(2), []int64{stalled, stalled}, now, []int64{1, 2}); got != -1 {
		t.Errorf("pick with none ready = %d, want -1", got)
	}
}

// TestGTOIdleMatchesFruitlessPick checks Idle's contract: it leaves GTO in
// the state a Pick with no ready warp would, so the greedy warp is forgotten.
func TestGTOIdleMatchesFruitlessPick(t *testing.T) {
	slots := identity(2)
	age := []int64{2, 1}
	for _, idle := range []bool{false, true} {
		s := New(config.SchedGTO)
		readyAt := []int64{readyNow, stalled}
		if got := s.Pick(slots, readyAt, now, age); got != 0 {
			t.Fatalf("first pick = %d, want 0 (only ready warp)", got)
		}
		if idle {
			s.Idle()
		} else if got := s.Pick(slots, []int64{stalled, stalled}, now, age); got != -1 {
			t.Fatalf("pick with none ready = %d, want -1", got)
		}
		readyAt[1] = readyNow
		if got := s.Pick(slots, readyAt, now, age); got != 1 {
			t.Errorf("idle=%v: pick after a fruitless cycle = %d, want 1 (oldest, greedy warp forgotten)", idle, got)
		}
	}
}

// TestPickReadsSlotsInPlace checks that every policy indexes readiness
// through slots and returns an index into slots, not a slot number.
func TestPickReadsSlotsInPlace(t *testing.T) {
	readyAt := []int64{readyNow, stalled, readyNow, readyNow, stalled, readyNow}
	slots := []int{1, 3, 4, 5} // ready: 3 and 5
	age := []int64{1, 4, 2, 3}
	for _, p := range []config.SchedulerPolicy{config.SchedGTO, config.SchedLRR, config.SchedOldest} {
		want := 3 // slot 5, the oldest ready warp
		if p == config.SchedLRR {
			want = 1 // slot 3, the first ready warp in round-robin order
		}
		if got := New(p).Pick(slots, readyAt, now, age); got != want {
			t.Errorf("%s: pick = %d, want %d", p, got, want)
		}
	}
	// The cycle argument decides readiness: at now+1 the stalled warps are
	// ready too, and slot 1 (index 0) is the oldest.
	if got := New(config.SchedOldest).Pick(slots, readyAt, stalled, age); got != 0 {
		t.Errorf("oldest at cycle %d: pick = %d, want 0", stalled, got)
	}
}

func TestLRRRotates(t *testing.T) {
	s := New(config.SchedLRR)
	slots := identity(3)
	readyAt := []int64{readyNow, readyNow, readyNow}
	age := []int64{1, 2, 3}
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, s.Pick(slots, readyAt, now, age))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRR order = %v, want %v", order, want)
		}
	}
}

func TestLRRSkipsStalled(t *testing.T) {
	s := New(config.SchedLRR)
	slots := identity(3)
	if got := s.Pick(slots, []int64{stalled, readyNow, stalled}, now, nil); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	if got := s.Pick(slots, []int64{stalled, stalled, stalled}, now, nil); got != -1 {
		t.Errorf("pick with none ready = %d, want -1", got)
	}
}

func TestOldestPolicy(t *testing.T) {
	s := New(config.SchedOldest)
	slots := identity(3)
	readyAt := []int64{readyNow, readyNow, readyNow}
	age := []int64{5, 2, 9}
	for i := 0; i < 3; i++ {
		if got := s.Pick(slots, readyAt, now, age); got != 1 {
			t.Fatalf("oldest pick = %d, want 1", got)
		}
	}
}

func TestNames(t *testing.T) {
	for _, p := range []config.SchedulerPolicy{config.SchedGTO, config.SchedLRR, config.SchedOldest} {
		if New(p).Name() != string(p) {
			t.Errorf("New(%q).Name() = %q", p, New(p).Name())
		}
	}
}
