package harness

import (
	"context"
	"runtime"
	"sync"
)

// Budget is a weighted CPU-slot semaphore. Everything in one process that
// runs simulations — the harness runner's worker pool and the snaked
// service's job workers — draws from one shared Budget, so the number of
// busy simulation threads never exceeds the machine, no matter how the two
// pools are configured. Runners and the service tick serially and hold one
// slot per run; a caller that runs one wide simulation with
// sim.Options.Parallelism = p holds p slots for its duration, so intra-run
// workers and concurrent runs spend the same currency.
type Budget struct {
	mu      sync.Mutex
	cap     int
	used    int
	waiters []budgetWaiter
}

type budgetWaiter struct {
	need  int
	ready chan struct{}
}

// NewBudget returns a budget of n CPU slots (n < 1 is treated as 1).
func NewBudget(n int) *Budget {
	if n < 1 {
		n = 1
	}
	return &Budget{cap: n}
}

var (
	sharedOnce sync.Once
	shared     *Budget
)

// SharedBudget returns the process-wide budget, sized to GOMAXPROCS at first
// use. It is the default for NewRunner and the snaked service, which is what
// makes their combined footprint bounded.
func SharedBudget() *Budget {
	sharedOnce.Do(func() { shared = NewBudget(runtime.GOMAXPROCS(0)) })
	return shared
}

// Cap returns the total number of slots.
func (b *Budget) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cap
}

// Acquire blocks until n slots are free (or ctx is done) and takes them,
// returning the granted count — n clamped to the budget's capacity, so a
// request wider than the whole machine degrades to using the whole machine
// instead of deadlocking. Grants are strictly FIFO: a wide request parks
// arrivals behind it rather than starving while narrow requests slip past.
func (b *Budget) Acquire(ctx context.Context, n int) (int, error) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	if n > b.cap {
		n = b.cap
	}
	if len(b.waiters) == 0 && b.used+n <= b.cap {
		b.used += n
		b.mu.Unlock()
		return n, nil
	}
	w := budgetWaiter{need: n, ready: make(chan struct{})}
	b.waiters = append(b.waiters, w)
	b.mu.Unlock()
	select {
	case <-w.ready:
		return n, nil
	case <-ctx.Done():
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-w.ready:
		// Granted concurrently with cancellation: hand the slots straight
		// back so the accounting stays balanced.
		b.used -= n
		b.grantLocked()
	default:
		for i := range b.waiters {
			if b.waiters[i].ready == w.ready {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				break
			}
		}
		// Removing a parked wide request may unblock the requests behind it.
		b.grantLocked()
	}
	return 0, ctx.Err()
}

// Release returns n slots (the count Acquire granted).
func (b *Budget) Release(n int) {
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		panic("harness: Budget.Release without matching Acquire")
	}
	b.grantLocked()
	b.mu.Unlock()
}

// grantLocked admits queued waiters, in order, while their weights fit.
func (b *Budget) grantLocked() {
	i := 0
	for ; i < len(b.waiters); i++ {
		w := b.waiters[i]
		if b.used+w.need > b.cap {
			break
		}
		b.used += w.need
		close(w.ready)
	}
	if i > 0 {
		b.waiters = append(b.waiters[:0], b.waiters[i:]...)
	}
}
