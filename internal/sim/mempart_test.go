package sim

import (
	"testing"

	"snake/internal/config"
	"snake/internal/workloads"
)

// TestMemPartitionRowHitFasterThanRowMiss pins the DRAM row-buffer model's
// central contract: with a row already open, a second line from the same row
// costs CAS latency only, strictly less than the activate+CAS of the cold
// miss that opened it — and the controller counts exactly one of each.
func TestMemPartitionRowHitFasterThanRowMiss(t *testing.T) {
	cfg := config.Scaled(2, 8)
	m := newMemPartition(0, cfg, nil)

	cold := m.access(0, 100)
	missLat := cold - 100
	m.completeFill(0, cold)

	// A different line in the same DRAM row, issued long after the bank has
	// gone quiescent so no bank-busy queueing muddies the latency.
	sameRow := uint64(cfg.DRAMRowBytes / 2)
	hit := m.access(sameRow, 10_000)
	hitLat := hit - 10_000
	if hitLat >= missLat {
		t.Errorf("open-row access took %d cycles, not faster than the %d-cycle row miss", hitLat, missLat)
	}
	reads, rowHits, rowMisses := m.dramStats()
	if reads != 2 || rowHits != 1 || rowMisses != 1 {
		t.Errorf("dram counters reads=%d rowHits=%d rowMisses=%d, want 2/1/1", reads, rowHits, rowMisses)
	}
}

// TestMemPartitionPrechargePenalty checks the other side of the open-page
// policy: a row miss on a bank that already holds an open row pays a
// precharge on top of activate+CAS, so some row in a probe sweep must come
// back strictly slower than the cold miss on an empty bank — and every probe
// must be counted as a row miss (rows never falsely hit).
func TestMemPartitionPrechargePenalty(t *testing.T) {
	cfg := config.Scaled(2, 8)
	m := newMemPartition(0, cfg, nil)

	cold := m.access(0, 100)
	coldLat := cold - 100

	// Probe distinct rows with long quiescent gaps. The bank mapping is
	// swizzled, so rather than assuming which row shares row 0's bank, sweep
	// until one demonstrably pays the precharge.
	sawPrecharge := false
	cycle := int64(100_000)
	const probes = 64
	for row := uint64(1); row <= probes; row++ {
		lat := m.access(row*uint64(cfg.DRAMRowBytes), cycle) - cycle
		if lat < coldLat {
			t.Fatalf("row %d: closed-row access took %d cycles, faster than a cold miss (%d)", row, lat, coldLat)
		}
		if lat > coldLat {
			sawPrecharge = true
		}
		cycle += 100_000
	}
	if !sawPrecharge {
		t.Errorf("no probe among %d distinct rows paid a precharge over the cold-miss latency %d", probes, coldLat)
	}
	if _, rowHits, rowMisses := m.dramStats(); rowHits != 0 || rowMisses != probes+1 {
		t.Errorf("rowHits=%d rowMisses=%d, want 0 and %d: distinct rows must all miss", rowHits, rowMisses, probes+1)
	}
}

// TestMemPartitionMergeWindowCloses complements TestMemPartitionMergesInflight:
// merging applies only while the fetch is strictly in flight. At or after the
// data-ready cycle a same-line access is a fresh request — without a
// completeFill the line is not in L2 either, so DRAM sees a second read.
func TestMemPartitionMergeWindowCloses(t *testing.T) {
	m := newMemPartition(0, config.Scaled(2, 8), nil)
	line := uint64(0x4000)
	r1 := m.access(line, 100)
	r2 := m.access(line, r1) // window closed: ra > cycle no longer holds
	if r2 <= r1 {
		t.Errorf("post-window access ready at %d, not after the first fetch at %d", r2, r1)
	}
	if reads, _, _ := m.dramStats(); reads != 2 {
		t.Errorf("dram reads = %d, want 2: the closed merge window must issue a new read", reads)
	}
}

// TestDrainResponsesDeliveryOrdering drives the memory→SM response path
// white-box: responses pushed out of ready order must cross the response
// network in readyAt order, never before their data is ready, and land on
// each destination shard's ingress port in non-decreasing stamp order — the
// FIFO-equals-cycle-order property the parallel executor relies on.
func TestDrainResponsesDeliveryOrdering(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := newTestEngine(k, Options{Config: tinyCfg()}.withDefaults())

	lineSz := uint64(e.cfg.Unified.LineSize)
	push := func(ready int64, sm int, line uint64) {
		e.resps.push(resp{readyAt: ready, sm: sm, lineAddr: line, part: e.partOf(line)})
	}
	// Out-of-order pushes across two shards; per shard the readyAt values are
	// distinct so the expected per-port sequence is unambiguous.
	push(50, 0, 5*lineSz)
	push(10, 0, 1*lineSz)
	push(30, 1, 3*lineSz)
	push(12, 1, 2*lineSz)
	push(70, 0, 7*lineSz)

	step := func(c int64) {
		e.cycle = c
		e.net.tick(c)
		e.drainResponses(c)
	}
	// Before the earliest readyAt nothing may be sent, no matter how idle the
	// response network is.
	for c := int64(1); c < 10; c++ {
		step(c)
	}
	if len(e.resps) != 5 {
		t.Fatalf("%d responses sent before their data was ready", 5-len(e.resps))
	}
	for c := int64(10); c <= 200 && len(e.resps) > 0; c++ {
		step(c)
	}
	if len(e.resps) != 0 {
		t.Fatalf("%d responses still queued after 200 cycles", len(e.resps))
	}

	want := map[int][]uint64{
		0: {1 * lineSz, 5 * lineSz, 7 * lineSz},
		1: {2 * lineSz, 3 * lineSz},
	}
	for smID, wantLines := range want {
		sh := e.shards[smID]
		last := int64(-1)
		for i, wl := range wantLines {
			stamp := sh.fills.NextCycle()
			f, ok := sh.fills.PopDue(1 << 60)
			if !ok {
				t.Fatalf("sm %d: ingress holds %d fills, want %d", smID, i, len(wantLines))
			}
			if stamp < last {
				t.Errorf("sm %d: delivery stamp went backwards: %d after %d", smID, stamp, last)
			}
			last = stamp
			if f.lineAddr != wl {
				t.Errorf("sm %d: fill %d is line %#x, want %#x (readyAt order)", smID, i, f.lineAddr, wl)
			}
		}
		if _, ok := sh.fills.PopDue(1 << 60); ok {
			t.Errorf("sm %d: extra fill beyond the %d expected", smID, len(wantLines))
		}
	}
}

// TestDrainResponsesSerializesBandwidth checks response-network backpressure:
// a burst of same-cycle responses cannot all be delivered at once. The link
// serializes them — delivery stamps must span at least the burst's
// serialization time — and the bounded backlog forces the heap to drain over
// several cycles rather than booking the whole burst in one.
func TestDrainResponsesSerializesBandwidth(t *testing.T) {
	k := workloads.StreamMicro(workloads.Tiny(), 256)
	e := newTestEngine(k, Options{Config: tinyCfg()}.withDefaults())

	lineSz := e.cfg.Unified.LineSize
	const burst = 40
	for i := 0; i < burst; i++ {
		line := uint64(i) * uint64(lineSz)
		e.resps.push(resp{readyAt: 1, sm: 0, lineAddr: line, part: e.partOf(line)})
	}
	e.cycle = 1
	e.net.tick(1)
	e.drainResponses(1)
	if len(e.resps) == 0 {
		t.Fatal("entire burst booked in one cycle; the backlog bound never engaged")
	}
	for c := int64(2); c <= 500 && len(e.resps) > 0; c++ {
		e.cycle = c
		e.net.tick(c)
		e.drainResponses(c)
	}
	if len(e.resps) != 0 {
		t.Fatalf("%d responses still queued after 500 cycles", len(e.resps))
	}

	sh := e.shards[0]
	if got := sh.fills.Len(); got != burst {
		t.Fatalf("ingress holds %d fills, want %d", got, burst)
	}
	first := sh.fills.NextCycle()
	last := first
	for {
		stamp := sh.fills.NextCycle()
		if _, ok := sh.fills.PopDue(1 << 60); !ok {
			break
		}
		if stamp < last {
			t.Fatalf("delivery stamp went backwards: %d after %d", stamp, last)
		}
		last = stamp
	}
	// burst × lineSz bytes over a bpc-bytes/cycle link cannot be delivered in
	// fewer cycles than its serialization time.
	bpc := e.cfg.IcntBytesPerCycle * e.cfg.NumSM
	if minSpread := int64(burst*lineSz/bpc - 1); last-first < minSpread {
		t.Errorf("burst delivered within %d cycles; serialization needs at least %d", last-first, minSpread)
	}
}
