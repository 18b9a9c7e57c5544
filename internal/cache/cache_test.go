package cache

import (
	"testing"
	"testing/quick"

	"snake/internal/config"
)

func geom(sizeKB, ways, line int) config.CacheGeom {
	return config.CacheGeom{SizeBytes: sizeKB * 1024, Ways: ways, LineSize: line, Latency: 1}
}

func TestLineAddr(t *testing.T) {
	c := New(geom(4, 4, 128))
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0}, {1, 0}, {127, 0}, {128, 128}, {1000, 896},
	} {
		if got := c.LineAddr(tc.in); got != tc.want {
			t.Errorf("LineAddr(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestReserveFillProbe(t *testing.T) {
	c := New(geom(4, 4, 128))
	addr := uint64(0x1000)
	if p := c.Probe(addr); p.Present || p.Reserved {
		t.Fatal("empty cache claims presence")
	}
	if _, ok := c.Reserve(addr, ClassData, 1, nil); !ok {
		t.Fatal("Reserve failed on empty cache")
	}
	if p := c.Probe(addr); !p.Reserved || p.Present {
		t.Fatalf("after Reserve: %+v", p)
	}
	if !c.Fill(addr, 2) {
		t.Fatal("Fill failed")
	}
	p := c.Probe(addr)
	if !p.Present || p.Reserved || p.Class != ClassData {
		t.Fatalf("after Fill: %+v", p)
	}
}

func TestFillWithoutReservation(t *testing.T) {
	c := New(geom(4, 4, 128))
	if c.Fill(0x1000, 1) {
		t.Error("Fill without reservation must fail")
	}
}

func TestReserveDuplicateFails(t *testing.T) {
	c := New(geom(4, 4, 128))
	c.Reserve(0x1000, ClassData, 1, nil)
	if _, ok := c.Reserve(0x1000, ClassData, 2, nil); ok {
		t.Error("duplicate Reserve must fail")
	}
}

// fillSet fills every way of the set containing addr with distinct lines of
// the given class and returns the line addresses used.
func fillSet(t *testing.T, c *Cache, addr uint64, class Class, cycle int64) []uint64 {
	t.Helper()
	g := c.Geom()
	setSpan := uint64(g.Sets() * g.LineSize)
	var lines []uint64
	for w := 0; w < g.Ways; w++ {
		la := addr + uint64(w)*setSpan // same set, different tags
		if _, ok := c.Reserve(la, class, cycle, nil); !ok {
			t.Fatalf("Reserve way %d failed", w)
		}
		if !c.Fill(la, cycle) {
			t.Fatalf("Fill way %d failed", w)
		}
		cycle++
		lines = append(lines, la)
	}
	return lines
}

func TestLRUEviction(t *testing.T) {
	c := New(geom(2, 4, 128)) // 16 lines, 4 ways, 4 sets
	lines := fillSet(t, c, 0x10000, ClassData, 10)
	// Touch all but lines[1]; lines[1] becomes LRU.
	for i, la := range lines {
		if i != 1 {
			c.Touch(la, int64(100+i))
		}
	}
	ev, ok := c.Reserve(0x90000, ClassData, 200, nil)
	if !ok {
		t.Fatal("Reserve with full set failed")
	}
	if !ev.Valid || ev.LineAddr != lines[1] {
		t.Errorf("evicted %#x, want LRU line %#x", ev.LineAddr, lines[1])
	}
}

func TestVictimFilterRespected(t *testing.T) {
	c := New(geom(2, 4, 128))
	lines := fillSet(t, c, 0x10000, ClassData, 10)
	// Mark lines[0] as prefetch by refilling... instead reserve new set:
	// use filter that rejects everything -> must fail.
	if _, ok := c.Reserve(0x90000, ClassData, 50, func(Class, bool) bool { return false }); ok {
		t.Error("Reserve must fail when the filter rejects every victim")
	}
	// Filter allowing only lines already touched at cycle>=12 etc. —
	// here: allow only data class; all are data, so it succeeds.
	if _, ok := c.Reserve(0x90000, ClassData, 60, func(c Class, _ bool) bool { return c == ClassData }); !ok {
		t.Error("Reserve must succeed when victims pass the filter")
	}
	_ = lines
}

func TestReservedLinesAreNotVictims(t *testing.T) {
	c := New(geom(2, 4, 128))
	g := c.Geom()
	setSpan := uint64(g.Sets() * g.LineSize)
	base := uint64(0x10000)
	// Reserve all 4 ways without filling: all reserved.
	for w := 0; w < 4; w++ {
		if _, ok := c.Reserve(base+uint64(w)*setSpan, ClassData, 1, nil); !ok {
			t.Fatalf("setup reserve %d failed", w)
		}
	}
	if _, ok := c.Reserve(base+10*setSpan, ClassData, 2, nil); ok {
		t.Error("Reserve must fail when every way has a fill in flight")
	}
}

func TestTouchTransfersPrefetchClass(t *testing.T) {
	c := New(geom(4, 4, 128))
	addr := uint64(0x2000)
	c.Reserve(addr, ClassPrefetch, 1, nil)
	c.Fill(addr, 2)
	if _, pf, _, _ := c.Occupancy(); pf != 1 {
		t.Fatalf("prefetch occupancy = %d, want 1", pf)
	}
	transferred, wasPrefetch, ok := c.Touch(addr, 3)
	if !ok || !transferred || !wasPrefetch {
		t.Fatalf("Touch = (%v,%v,%v), want transfer of prefetch line", transferred, wasPrefetch, ok)
	}
	data, pf, _, _ := c.Occupancy()
	if data != 1 || pf != 0 {
		t.Errorf("after transfer: data=%d pf=%d", data, pf)
	}
	// Second touch: already data class.
	if transferred, _, _ := c.Touch(addr, 4); transferred {
		t.Error("second Touch must not transfer again")
	}
}

func TestOccupancyInvariant(t *testing.T) {
	c := New(geom(2, 4, 128))
	check := func(when string) {
		data, pf, res, free := c.Occupancy()
		if data+pf+res+free != c.Lines() {
			t.Fatalf("%s: occupancy %d+%d+%d+%d != %d", when, data, pf, res, free, c.Lines())
		}
	}
	check("empty")
	addrs := []uint64{0x0, 0x80, 0x100, 0x8000, 0x8080}
	for i, a := range addrs {
		c.Reserve(a, Class(i%2), int64(i), nil)
		check("after reserve")
		c.Fill(a, int64(i))
		check("after fill")
	}
	c.EvictLRUOfClass(nil, ClassData, 2)
	check("after bulk evict")
	c.InvalidateAll()
	check("after invalidate")
	if _, _, _, free := c.Occupancy(); free != c.Lines() {
		t.Error("InvalidateAll must free everything")
	}
}

func TestEvictLRUOfClass(t *testing.T) {
	c := New(geom(2, 4, 128))
	// 8 data lines at ages 1..8 in two sets, 4 prefetch lines ages 9..12.
	g := c.Geom()
	setSpan := uint64(g.Sets() * g.LineSize)
	cycle := int64(1)
	for w := 0; w < 4; w++ {
		for s := 0; s < 2; s++ {
			la := uint64(0x10000) + uint64(s)*128 + uint64(w)*setSpan
			c.Reserve(la, ClassData, cycle, nil)
			c.Fill(la, cycle)
			cycle++
		}
	}
	evs := c.EvictLRUOfClass(nil, ClassData, 3)
	if len(evs) != 3 {
		t.Fatalf("evicted %d lines, want 3", len(evs))
	}
	data, _, _, free := c.Occupancy()
	if data != 5 || free != c.Lines()-5 {
		t.Errorf("after bulk evict: data=%d free=%d", data, free)
	}
	// Requesting more than available evicts only what exists.
	if evs := c.EvictLRUOfClass(nil, ClassPrefetch, 100); len(evs) != 0 {
		t.Errorf("evicted %d prefetch lines from a data-only cache", len(evs))
	}
}

func TestAddrRoundTrip(t *testing.T) {
	c := New(geom(8, 4, 128))
	f := func(raw uint64) bool {
		la := c.LineAddr(raw % (1 << 40))
		set, tag := c.index(la)
		return c.addrOf(set, tag) == la
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPowerOfTwoGeometryRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two set count")
		}
	}()
	New(config.CacheGeom{SizeBytes: 3 * 128 * 4, Ways: 4, LineSize: 128})
}
