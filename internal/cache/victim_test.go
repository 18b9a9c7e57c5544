package cache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snake/internal/config"
)

// refReserve is Reserve as a linear scan of the set, the reference the
// victim index must match: the lowest free way, else the least recently used
// valid way the filter admits, the lowest way winning a lastUse tie.
func refReserve(c *Cache, addr uint64, class Class, cycle int64, filter VictimFilter) (EvictInfo, bool) {
	s, tag := c.index(addr)
	if c.findPos(addr) >= 0 {
		return EvictInfo{}, false
	}
	set := c.lines[s*c.ways : (s+1)*c.ways]
	for w := range set {
		if !set[w].valid && !set[w].reserved {
			c.install(s, w, tag, class)
			return EvictInfo{}, true
		}
	}
	victim := -1
	oldest := int64(math.MaxInt64)
	for w := range set {
		ln := &set[w]
		if !ln.valid || filter != nil && !filter(ln.class, ln.touched) {
			continue
		}
		if ln.lastUse < oldest {
			victim = w
			oldest = ln.lastUse
		}
	}
	if victim < 0 {
		return EvictInfo{}, false
	}
	ev := c.evictAt(int32(s*c.ways + victim))
	c.install(s, victim, tag, class)
	return ev, true
}

// refEvictLRUOfClass is EvictLRUOfClass as a scan of every line: candidates
// in line order, then the same partial selection sort.
func refEvictLRUOfClass(c *Cache, class Class, n int) []EvictInfo {
	if n <= 0 {
		return nil
	}
	var cands []evictCand
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.class == class {
			cands = append(cands, evictCand{int32(i), ln.lastUse})
		}
	}
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].lastUse < cands[min].lastUse {
				min = j
			}
		}
		cands[i], cands[min] = cands[min], cands[i]
	}
	var out []EvictInfo
	for i := 0; i < n; i++ {
		out = append(out, c.evictAt(cands[i].pos))
	}
	return out
}

// checkVictimIndex verifies the victim lists against the line array: every
// valid line sits in exactly its (set, class, touched) list, each list is
// doubly linked and strictly ordered by (lastUse, way), and nothing else is
// listed.
func checkVictimIndex(c *Cache) error {
	listed := 0
	for li := range c.vhead {
		set, g := li/4, li%4
		prev := int32(-1)
		for p := c.vhead[li]; p >= 0; p = c.vlink[p].next {
			ln := &c.lines[p]
			switch {
			case int(p)/c.ways != set:
				return fmt.Errorf("list %d/%d holds line %d of set %d", set, g, p, int(p)/c.ways)
			case !ln.valid || ln.reserved:
				return fmt.Errorf("list %d/%d holds invalid or reserved line %d", set, g, p)
			case victimGroup(ln.class, ln.touched) != g:
				return fmt.Errorf("list %d/%d holds line %d of group %d", set, g, p, victimGroup(ln.class, ln.touched))
			case c.vlink[p].prev != prev:
				return fmt.Errorf("list %d/%d: line %d has prev %d, want %d", set, g, p, c.vlink[p].prev, prev)
			case prev >= 0 && !c.older(prev, p):
				return fmt.Errorf("list %d/%d: line %d is not older than line %d", set, g, prev, p)
			}
			prev = p
			if listed++; listed > len(c.lines) {
				return fmt.Errorf("list %d/%d is cyclic", set, g)
			}
		}
		if c.vtail[li] != prev {
			return fmt.Errorf("list %d/%d: tail %d, want %d", set, g, c.vtail[li], prev)
		}
	}
	if valid := c.nData + c.nPrefetch; listed != valid {
		return fmt.Errorf("%d lines listed, %d valid", listed, valid)
	}
	return nil
}

// victimFilters are the filters the L1 controller and the L2 pass to
// Reserve: none, free ways only, prefetch lines only, and the two demand
// filters of L1.demandVictimFilter.
var victimFilters = []VictimFilter{
	nil,
	neverEvict,
	prefetchClassOnly,
	func(c Class, _ bool) bool { return c == ClassData },
	func(c Class, touched bool) bool { return c == ClassData || touched },
}

// victimGeoms are the geometries the simulator builds caches with: the
// paper-grid 2×256 unified L1 data space, the 16-way Scaled and 24-way
// Table 1 L2 partitions, and the 8-way isolated prefetch buffer.
var victimGeoms = []config.CacheGeom{
	{SizeBytes: 64 * 1024, Ways: 256, LineSize: 128},
	{SizeBytes: 64 * 1024, Ways: 16, LineSize: 128},
	{SizeBytes: 96 * 1024, Ways: 24, LineSize: 128},
	{SizeBytes: 32 * 1024, Ways: 8, LineSize: 128},
}

// maxVictimSteps bounds one runVictimOps sequence, so a long fuzz input
// costs bounded time.
const maxVictimSteps = 4096

// runVictimOps decodes ops into a sequence of cache operations, applies each
// to a cache using the victim index and to one driven by the linear-scan
// reference, and reports the first divergence in a result, the occupancy,
// the line array or the index invariants. The first byte picks the geometry.
//
// Addresses fall in the first three sets with twice as many tags as ways, so
// sets fill and conflict. Each op advances the cycle by -2..5, giving equal
// stamps and out-of-order ones.
func runVictimOps(ops []byte) error {
	if len(ops) == 0 {
		return nil
	}
	geom := victimGeoms[int(ops[0])%len(victimGeoms)]
	ops = ops[1:]
	fast, ref := New(geom), New(geom)
	sets := geom.Sets()
	nsets := min(sets, 3)
	span := uint64(sets * geom.LineSize)
	addrOf := func(tag uint64, set int) uint64 {
		return tag%uint64(2*geom.Ways)*span + uint64(set)*uint64(geom.LineSize)
	}
	next := func() (byte, bool) {
		if len(ops) == 0 {
			return 0, false
		}
		b := ops[0]
		ops = ops[1:]
		return b, true
	}
	var cycle int64 = 1000
	for step := 0; step < maxVictimSteps; step++ {
		op, ok1 := next()
		a, ok2 := next()
		b, ok3 := next()
		if !ok1 || !ok2 || !ok3 {
			return nil
		}
		cycle += int64(op>>5) - 2
		set := int(b>>4) % nsets
		hi := uint64(op>>3&3) << 8 // tag bits past a byte, for the 256-way set
		addr := addrOf(hi|uint64(a), set)
		class := Class(b & 1)
		var what string
		switch op & 7 {
		case 0, 1:
			filter := victimFilters[int(b>>1)%len(victimFilters)]
			ev1, ok1 := fast.Reserve(addr, class, cycle, filter)
			ev2, ok2 := refReserve(ref, addr, class, cycle, filter)
			what = fmt.Sprintf("Reserve(%#x, %d, %d, filter %d)", addr, class, cycle, int(b>>1)%len(victimFilters))
			if ev1 != ev2 || ok1 != ok2 {
				return fmt.Errorf("step %d: %s = %+v,%v, reference %+v,%v", step, what, ev1, ok1, ev2, ok2)
			}
		case 2:
			what = fmt.Sprintf("Fill(%#x, %d)", addr, cycle)
			if r1, r2 := fast.Fill(addr, cycle), ref.Fill(addr, cycle); r1 != r2 {
				return fmt.Errorf("step %d: %s = %v, reference %v", step, what, r1, r2)
			}
		case 3:
			what = fmt.Sprintf("Touch(%#x, %d)", addr, cycle)
			t1, w1, k1 := fast.Touch(addr, cycle)
			t2, w2, k2 := ref.Touch(addr, cycle)
			if t1 != t2 || w1 != w2 || k1 != k2 {
				return fmt.Errorf("step %d: %s differs from reference", step, what)
			}
		case 4:
			what = fmt.Sprintf("Hit(%#x, %d)", addr, cycle)
			if p1, p2 := fast.Hit(addr, cycle), ref.Hit(addr, cycle); p1 != p2 {
				return fmt.Errorf("step %d: %s = %+v, reference %+v", step, what, p1, p2)
			}
		case 5:
			n := int(a) % (geom.Lines()/4 + 2)
			what = fmt.Sprintf("EvictLRUOfClass(%d, %d)", class, n)
			e1 := fast.EvictLRUOfClass(nil, class, n)
			e2 := refEvictLRUOfClass(ref, class, n)
			if !slices.Equal(e1, e2) {
				return fmt.Errorf("step %d: %s = %+v, reference %+v", step, what, e1, e2)
			}
		case 6:
			// Bulk fill: reserve and fill up to 64 lines of one set, all
			// stamped with the same cycle or with consecutive ones.
			what = "bulk fill"
			for i := 0; i < int(a)%64+1; i++ {
				la := addrOf(hi+uint64(b)*3+uint64(i)*7, set)
				c := cycle
				if b&2 != 0 {
					c += int64(i)
				}
				ev1, ok1 := fast.Reserve(la, class, c, nil)
				ev2, ok2 := refReserve(ref, la, class, c, nil)
				if ev1 != ev2 || ok1 != ok2 {
					return fmt.Errorf("step %d: bulk Reserve(%#x) = %+v,%v, reference %+v,%v", step, la, ev1, ok1, ev2, ok2)
				}
				fast.Fill(la, c)
				ref.Fill(la, c)
			}
		case 7:
			if a != 0 {
				continue // keep InvalidateAll rare
			}
			what = "InvalidateAll"
			fast.InvalidateAll()
			ref.InvalidateAll()
		}
		d1, p1, r1, f1 := fast.Occupancy()
		d2, p2, r2, f2 := ref.Occupancy()
		if d1 != d2 || p1 != p2 || r1 != r2 || f1 != f2 {
			return fmt.Errorf("step %d: after %s occupancy %d/%d/%d/%d, reference %d/%d/%d/%d",
				step, what, d1, p1, r1, f1, d2, p2, r2, f2)
		}
		for i := range fast.lines {
			if fast.lines[i] != ref.lines[i] {
				return fmt.Errorf("step %d: after %s line %d is %+v, reference %+v", step, what, i, fast.lines[i], ref.lines[i])
			}
		}
		if err := checkVictimIndex(fast); err != nil {
			return fmt.Errorf("step %d: after %s: %v", step, what, err)
		}
	}
	return nil
}

// TestVictimIndexMatchesLinearScan drives the victim index and the
// linear-scan reference with long random operation sequences on every
// geometry.
func TestVictimIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	steps := 2000
	if testing.Short() {
		steps = 500
	}
	for gi := range victimGeoms {
		for run := 0; run < 2; run++ {
			ops := make([]byte, 1+3*steps)
			rng.Read(ops)
			ops[0] = byte(gi)
			if err := runVictimOps(ops); err != nil {
				t.Fatalf("geometry %d run %d: %v", gi, run, err)
			}
		}
	}
}

// FuzzVictimIndex is the native fuzz form of the differential test; the seed
// corpus is under testdata/fuzz/FuzzVictimIndex.
func FuzzVictimIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runVictimOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
