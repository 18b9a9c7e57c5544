// Package cache implements the on-chip cache substrate: a set-associative
// cache with LRU replacement, an MSHR file with merge capability, a miss
// queue, and the L1 controller used by the simulator.
//
// The L1 controller supports Snake's decoupled unified-cache organization
// (§3.2 of the paper): prefetched lines and demand (L1 data) lines share the
// unified storage but are distinguished by a per-line flag, each side may
// grow until the space is full, demand hits on prefetched lines "transfer"
// the line by flipping the flag, and eviction between the two classes follows
// the paper's 80%-transferred heuristic.
package cache

import (
	"fmt"
	"math/bits"

	"snake/internal/config"
)

// Class tags the owner of a cache line in the decoupled organization.
type Class uint8

// Line classes.
const (
	ClassData     Class = iota // normal L1 data
	ClassPrefetch              // line brought in by the prefetcher
)

// line is one cache line's metadata.
type line struct {
	tag      uint64
	valid    bool
	reserved bool // fill in flight
	class    Class
	lastUse  int64
	fillAt   int64 // cycle the line became valid
	touched  bool  // demanded at least once since fill (for useful-prefetch accounting)
}

// Cache is a set-associative cache with per-line class flags. Lines are
// stored in one contiguous array (set s occupies lines[s*ways:(s+1)*ways]),
// so a line's position names its set and way, and the line index and victim
// index address lines by that one int32.
type Cache struct {
	geom     config.CacheGeom
	lines    []line
	ways     int
	setShift uint
	setBits  uint
	setMask  uint64

	// idx maps a line's set+tag key to its position in lines, so lookups are
	// O(1) instead of an O(ways) set scan — the unified L1 is 256-way, so
	// scans dominated the simulator's CPU profile. It holds exactly the
	// lines that are valid or reserved.
	idx lineIdx

	// occ is a per-set bitmap of occupied (valid or reserved) ways; bits
	// beyond ways in a set's last word are permanently set so a zero bit
	// always names a free way. occWPS is words per set.
	occ    []uint64
	occWPS int

	// The victim index keeps, for every set and victim group (class<<1 |
	// touched), an intrusive doubly-linked list of the set's valid lines
	// ordered by (lastUse, way): vhead/vtail[set*4+group] are list ends and
	// vlink[pos] a line's neighbours, -1 terminated. Reserve's LRU victim is
	// the oldest of at most four list heads, so a full 256-way set costs O(1)
	// instead of a scan. Reserved (in-flight) lines are in no list and so are
	// never victims.
	vlink []vlink
	vhead []int32
	vtail []int32

	// EvictLRUOfClass scratch: a position bitmap that puts candidates back in
	// line order, and the candidate list itself.
	candMark []uint64
	cands    []evictCand

	// Occupancy counters for the decoupling policy.
	nData     int
	nPrefetch int
	nReserved int
}

// New builds a cache from the geometry. It panics on invalid geometry; use
// geom.Validate beforehand for recoverable checking.
func New(geom config.CacheGeom) *Cache {
	if err := geom.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	nsets := geom.Sets()
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", nsets))
	}
	ls := geom.LineSize
	if ls&(ls-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", ls))
	}
	shift := uint(0)
	for 1<<shift < ls {
		shift++
	}
	wps := (geom.Ways + 63) / 64
	c := &Cache{
		geom:     geom,
		lines:    make([]line, nsets*geom.Ways),
		ways:     geom.Ways,
		setShift: shift,
		setBits:  uint(len2(nsets)),
		setMask:  uint64(nsets - 1),
		occ:      make([]uint64, nsets*wps),
		occWPS:   wps,
		vlink:    make([]vlink, nsets*geom.Ways),
		vhead:    make([]int32, nsets*4),
		vtail:    make([]int32, nsets*4),
		candMark: make([]uint64, (nsets*geom.Ways+63)/64),
	}
	c.idx.init(len(c.lines))
	c.resetOcc()
	c.resetVictims()
	return c
}

// resetOcc clears the occupancy bitmap, re-marking the padding bits past the
// last way of each set as permanently occupied.
func (c *Cache) resetOcc() {
	for i := range c.occ {
		c.occ[i] = 0
	}
	if r := c.ways & 63; r != 0 {
		pad := ^uint64(0) << uint(r)
		nsets := len(c.lines) / c.ways
		for s := 0; s < nsets; s++ {
			c.occ[(s+1)*c.occWPS-1] |= pad
		}
	}
}

func (c *Cache) occMark(s, w int, occupied bool) {
	bit := uint64(1) << (uint(w) & 63)
	word := &c.occ[s*c.occWPS+(w>>6)]
	if occupied {
		*word |= bit
	} else {
		*word &^= bit
	}
}

// vlink is a line's place in its set's victim list.
type vlink struct{ prev, next int32 }

// victimGroup is the victim-index list a valid line with this class and
// touched bit belongs to.
func victimGroup(class Class, touched bool) int {
	g := int(class) << 1
	if touched {
		g |= 1
	}
	return g
}

// resetVictims empties every victim list.
func (c *Cache) resetVictims() {
	for i := range c.vhead {
		c.vhead[i] = -1
		c.vtail[i] = -1
	}
}

// older reports whether the valid line at a precedes the one at b in LRU
// order: smaller lastUse first, lower way (position) on ties.
func (c *Cache) older(a, b int32) bool {
	ua, ub := c.lines[a].lastUse, c.lines[b].lastUse
	return ua < ub || ua == ub && a < b
}

// vinsert links the valid line at pos into its set's list for its current
// class and touched bit. The search walks back from the tail: lines are
// normally stamped with the newest cycle and land there at once, while
// out-of-order stamps (L2 fill completions can arrive that way) still find
// their exact place.
func (c *Cache) vinsert(pos int32) {
	ln := &c.lines[pos]
	li := int(pos)/c.ways*4 + victimGroup(ln.class, ln.touched)
	p := c.vtail[li]
	for p >= 0 && c.older(pos, p) {
		p = c.vlink[p].prev
	}
	var next int32
	if p < 0 {
		next = c.vhead[li]
		c.vhead[li] = pos
	} else {
		next = c.vlink[p].next
		c.vlink[p].next = pos
	}
	if next < 0 {
		c.vtail[li] = pos
	} else {
		c.vlink[next].prev = pos
	}
	c.vlink[pos] = vlink{prev: p, next: next}
}

// vremove unlinks the valid line at pos from its list; call it before the
// line's class, touched bit or lastUse change.
func (c *Cache) vremove(pos int32) {
	ln := &c.lines[pos]
	li := int(pos)/c.ways*4 + victimGroup(ln.class, ln.touched)
	l := c.vlink[pos]
	if l.prev < 0 {
		c.vhead[li] = l.next
	} else {
		c.vlink[l.prev].next = l.next
	}
	if l.next < 0 {
		c.vtail[li] = l.prev
	} else {
		c.vlink[l.next].prev = l.prev
	}
}

// firstFree returns the lowest unoccupied way of set s, or -1 when full.
func (c *Cache) firstFree(s int) int {
	base := s * c.occWPS
	for wi := 0; wi < c.occWPS; wi++ {
		if free := ^c.occ[base+wi]; free != 0 {
			return wi<<6 + bits.TrailingZeros64(free)
		}
	}
	return -1
}

// LineAddr returns addr truncated to its cache-line base address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.geom.LineSize) - 1)
}

// Geom returns the cache geometry.
func (c *Cache) Geom() config.CacheGeom { return c.geom }

// Lines returns the total number of lines in the cache.
func (c *Cache) Lines() int { return c.geom.Lines() }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	la := addr >> c.setShift
	return int(la & c.setMask), la >> c.setBits
}

// addrOf reconstructs a line base address from a set index and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.setShift
}

// len2 returns log2(n) for power-of-two n.
func len2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// lineIdx is an open-addressing hash table from a line's set+tag key
// (addr >> setShift) to its position in Cache.lines. Linear probing;
// deletion backward-shifts the probe chain so no tombstones accumulate.
// Capacity is fixed at ≥2× the line count (occupancy is bounded by the
// number of lines), so the load factor never exceeds 1/2.
type lineIdx struct {
	keys  []uint64 // stored as key+1; 0 marks an empty slot
	vals  []int32
	mask  uint32
	shift uint
}

func (t *lineIdx) init(lines int) {
	size := 4
	for size < 2*lines {
		size <<= 1
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = uint32(size - 1)
	t.shift = uint(64 - len2(size))
}

func (t *lineIdx) slot(key uint64) uint32 {
	return uint32(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns the stored position for key, or -1.
func (t *lineIdx) get(key uint64) int32 {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case 0:
			return -1
		}
	}
}

func (t *lineIdx) put(key uint64, val int32) {
	k := key + 1
	for i := t.slot(key); ; i = (i + 1) & t.mask {
		if t.keys[i] == 0 || t.keys[i] == k {
			t.keys[i] = k
			t.vals[i] = val
			return
		}
	}
}

func (t *lineIdx) del(key uint64) {
	k := key + 1
	i := t.slot(key)
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift deletion: pull each later entry of the probe chain into
	// the hole unless its home slot lies cyclically within (hole, entry].
	j := i
	for {
		j = (j + 1) & t.mask
		if t.keys[j] == 0 {
			break
		}
		h := t.slot(t.keys[j] - 1)
		if i < j {
			if i < h && h <= j {
				continue
			}
		} else if h > i || h <= j {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
	t.keys[i] = 0
}

func (t *lineIdx) reset() {
	for i := range t.keys {
		t.keys[i] = 0
	}
}

// findPos returns the index in lines of the line holding addr (valid or
// reserved), or -1.
func (c *Cache) findPos(addr uint64) int32 {
	return c.idx.get(addr >> c.setShift)
}

// findLine returns the line holding addr (valid or reserved), or nil.
func (c *Cache) findLine(addr uint64) *line {
	pos := c.findPos(addr)
	if pos < 0 {
		return nil
	}
	return &c.lines[pos]
}

// ProbeResult describes the state of a looked-up line.
type ProbeResult struct {
	Present  bool  // valid data in the cache
	Reserved bool  // fill in flight
	Class    Class // meaningful when Present
	Touched  bool
}

// Probe looks up addr without changing replacement state.
func (c *Cache) Probe(addr uint64) ProbeResult {
	ln := c.findLine(addr)
	if ln == nil {
		return ProbeResult{}
	}
	return ProbeResult{Present: ln.valid, Reserved: ln.reserved, Class: ln.class, Touched: ln.touched}
}

// touchLine applies Touch's demand-hit update to the valid line at pos.
func (c *Cache) touchLine(pos int32, cycle int64) (transferred bool) {
	c.vremove(pos)
	ln := &c.lines[pos]
	ln.lastUse = cycle
	ln.touched = true
	if ln.class == ClassPrefetch {
		ln.class = ClassData
		c.nPrefetch--
		c.nData++
		transferred = true
	}
	c.vinsert(pos)
	return transferred
}

// Touch performs a demand hit on addr: updates LRU and marks touched. If the
// line is in the prefetch class, it is transferred to the data class (the
// flag flip of §3.2) and transferred=true is returned. ok is false when the
// line is not present.
func (c *Cache) Touch(addr uint64, cycle int64) (transferred, wasPrefetch, ok bool) {
	pos := c.findPos(addr)
	if pos < 0 || !c.lines[pos].valid {
		return false, false, false
	}
	transferred = c.touchLine(pos, cycle)
	return transferred, transferred, true
}

// Hit combines Probe and Touch in a single lookup — the demand-access fast
// path. It returns the line's probe state as of before the call; when the
// line is present the LRU/touched/class-transfer update of Touch is applied
// in place.
func (c *Cache) Hit(addr uint64, cycle int64) ProbeResult {
	pos := c.findPos(addr)
	if pos < 0 {
		return ProbeResult{}
	}
	ln := &c.lines[pos]
	p := ProbeResult{Present: ln.valid, Reserved: ln.reserved, Class: ln.class, Touched: ln.touched}
	if ln.valid {
		c.touchLine(pos, cycle)
	}
	return p
}

// Occupancy returns the current line counts by state.
func (c *Cache) Occupancy() (data, prefetch, reserved, free int) {
	total := c.Lines()
	return c.nData, c.nPrefetch, c.nReserved, total - c.nData - c.nPrefetch - c.nReserved
}

// Reserve claims a line for an in-flight fill of addr with the given class.
// A victim is chosen inside addr's set:
//
//  1. an invalid, unreserved way if one exists;
//  2. otherwise the LRU valid way permitted by the victim filter;
//  3. if every way is reserved (or the filter rejects all), reservation
//     fails and ok=false is returned.
//
// evictedPrefetchUnused reports that the victim was an untouched prefetch
// line (early eviction, for accuracy accounting).
func (c *Cache) Reserve(addr uint64, class Class, cycle int64, filter VictimFilter) (evicted EvictInfo, ok bool) {
	s, tag := c.index(addr)
	// Already present or reserved? Caller should have probed; treat as
	// failure.
	if c.idx.get(addr>>c.setShift) >= 0 {
		return EvictInfo{}, false
	}
	// Invalid ways win over any victim; the bitmap gives the lowest one
	// without touching line metadata.
	if w := c.firstFree(s); w >= 0 {
		c.install(s, w, tag, class)
		return EvictInfo{}, true
	}
	// Set is full: the LRU victim is the oldest head among the victim lists
	// the filter admits. The filter is a pure function of (class, touched),
	// so it is asked at most once per list.
	victim := int32(-1)
	for g := 0; g < 4; g++ {
		h := c.vhead[s*4+g]
		if h < 0 || filter != nil && !filter(Class(g>>1), g&1 == 1) {
			continue
		}
		if victim < 0 || c.older(h, victim) {
			victim = h
		}
	}
	if victim < 0 {
		return EvictInfo{}, false
	}
	ev := c.evictAt(victim)
	c.install(s, int(victim)-s*c.ways, tag, class)
	return ev, true
}

// EvictInfo describes an evicted line.
type EvictInfo struct {
	Valid    bool
	Class    Class
	Touched  bool
	LineAddr uint64 // base address of the evicted line
}

func (c *Cache) install(set, way int, tag uint64, class Class) {
	pos := set*c.ways + way
	ln := &c.lines[pos]
	ln.tag = tag
	ln.valid = false
	ln.reserved = true
	ln.class = class
	ln.touched = false
	c.nReserved++
	c.occMark(set, way, true)
	c.idx.put(tag<<c.setBits|uint64(set), int32(pos))
}

// evictAt drops the valid line at pos.
func (c *Cache) evictAt(pos int32) EvictInfo {
	set, way := int(pos)/c.ways, int(pos)%c.ways
	c.vremove(pos)
	ln := &c.lines[pos]
	ev := EvictInfo{Valid: true, Class: ln.class, Touched: ln.touched, LineAddr: c.addrOf(set, ln.tag)}
	if ln.class == ClassPrefetch {
		c.nPrefetch--
	} else {
		c.nData--
	}
	ln.valid = false
	ln.reserved = false
	c.occMark(set, way, false)
	c.idx.del(ln.tag<<c.setBits | uint64(set))
	return ev
}

// Fill completes an in-flight fill for addr. ok is false if no reservation
// for addr exists (e.g. the reservation was squashed).
func (c *Cache) Fill(addr uint64, cycle int64) bool {
	pos := c.findPos(addr)
	if pos < 0 {
		return false
	}
	ln := &c.lines[pos]
	if !ln.reserved {
		return false
	}
	ln.reserved = false
	ln.valid = true
	ln.lastUse = cycle
	ln.fillAt = cycle
	c.nReserved--
	if ln.class == ClassPrefetch {
		c.nPrefetch++
	} else {
		c.nData++
	}
	c.vinsert(pos)
	return true
}

// VictimFilter restricts which lines may be evicted; it receives the line's
// class and whether it has been demand-touched.
type VictimFilter func(class Class, touched bool) bool

// evictCand is one EvictLRUOfClass candidate.
type evictCand struct {
	pos     int32
	lastUse int64
}

// EvictLRUOfClass evicts up to n valid lines of the given class, choosing
// globally least-recently-used first, and appends per-line info for
// accounting to dst (used by the §3.2 "free up 25% of the unified cache"
// bulk eviction).
//
// Candidates are taken in line order and the n oldest are chosen by a
// partial selection sort. Its swaps reorder candidates that share a lastUse,
// so which of several equally old lines go is defined by this procedure,
// not by (lastUse, position) order.
func (c *Cache) EvictLRUOfClass(dst []EvictInfo, class Class, n int) []EvictInfo {
	count := c.nData
	if class == ClassPrefetch {
		count = c.nPrefetch
	}
	if n <= 0 || count == 0 {
		return dst
	}
	// Mark the class's lines from its two victim lists per set, then read
	// the marks back in position order.
	for li := 0; li < len(c.vhead); li += 4 {
		for g := victimGroup(class, false); g <= victimGroup(class, true); g++ {
			for p := c.vhead[li+g]; p >= 0; p = c.vlink[p].next {
				c.candMark[p>>6] |= 1 << (uint(p) & 63)
			}
		}
	}
	cands := c.cands[:0]
	for wi, w := range c.candMark {
		if w == 0 {
			continue
		}
		c.candMark[wi] = 0
		for ; w != 0; w &= w - 1 {
			p := int32(wi<<6 + bits.TrailingZeros64(w))
			cands = append(cands, evictCand{p, c.lines[p].lastUse})
		}
	}
	c.cands = cands
	// Partial selection sort for the n oldest (n is small relative to size).
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
	for i := 0; i < n; i++ {
		dst = append(dst, c.evictAt(cands[i].pos))
	}
	return dst
}

// InvalidateAll clears the cache (used between kernels).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.nData, c.nPrefetch, c.nReserved = 0, 0, 0
	c.resetOcc()
	c.resetVictims()
	c.idx.reset()
}
