package sim

import (
	"runtime"
	"testing"
	"time"

	"snake/internal/config"
	"snake/internal/workloads"
)

// liveHeapBytes returns the live heap after forced collections. The second
// cycle lets finalizers queued by the first run before it measures.
func liveHeapBytes() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDroppedEnginesAreCollected drops engines without Close, serial and
// parallel ones alike, and checks that the collector frees them: the live
// heap may grow by far less than one 4-SM × 64-warp engine (about 0.8 MB)
// per dropped engine, and the parallel engines' parked crews are stopped by
// their finalizer backstop.
func TestDroppedEnginesAreCollected(t *testing.T) {
	k, err := workloads.Build("lps", workloads.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Scaled(4, 64)
	serial := Options{Config: cfg}
	parallel := Options{Config: cfg, Parallelism: 4, ForceParallelism: true}
	// One warm-up run so lazily built package state is not counted.
	if _, err := Run(k, serial); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	before := liveHeapBytes()
	goroutines := runtime.NumGoroutine()

	const n = 16
	for i := 0; i < n; i++ {
		opt := serial
		if i%2 == 1 {
			opt = parallel
		}
		if _, err := NewEngine().Run(k, opt); err != nil {
			t.Fatal(err)
		}
	}
	// Crew workers exit on the finalizer goroutine after the collection
	// that finds their engine unreachable; give them a moment.
	var after uint64
	for i := 0; i < 100; i++ {
		after = liveHeapBytes()
		if runtime.NumGoroutine() <= goroutines {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("dropped parallel engines left %d goroutines running, baseline %d", g, goroutines)
	}
	t.Logf("live heap %+d bytes over %d dropped engines", int64(after)-int64(before), n)
	const bound = 100 << 10
	if after > before && (after-before)/n > bound {
		t.Errorf("live heap grew %.2f MB per dropped engine, want under %.2f MB",
			float64(after-before)/n/(1<<20), float64(bound)/(1<<20))
	}
	runtime.KeepAlive(k)
}
