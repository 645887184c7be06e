// Package cache implements the set-associative caches of Table I: a
// 16 kB direct-mapped L1 (1-cycle) and a 2 MB 8-way L2 (32 B lines,
// 12-cycle), with true-LRU replacement and MSI line states for the
// directory protocol.
package cache

import "math/bits"

// State is a cache line's coherence state.
type State uint8

const (
	// Invalid: line not present (or invalidated).
	Invalid State = iota
	// Shared: clean, potentially cached elsewhere.
	Shared
	// Modified: dirty, exclusively owned.
	Modified
)

// String returns the MSI letter for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return "?"
	}
}

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity (1 = direct-mapped).
	Ways int
	// LineBytes is the line size.
	LineBytes int
	// HitCycles is the access latency on a hit.
	HitCycles uint64
}

// L1Default returns the Table I L1: 16 kB direct-mapped, 32 B lines,
// 1 cycle. (The paper gives the line size only for L2; we use 32 B
// throughout for a uniform coherence granularity.)
func L1Default() Config {
	return Config{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32, HitCycles: 1}
}

// L2Default returns the Table I L2: 2 MB, 8-way, 32 B lines, 12 cycles.
func L2Default() Config {
	return Config{SizeBytes: 2 << 20, Ways: 8, LineBytes: 32, HitCycles: 12}
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	DirtyEvic uint64
}

// Cache is one set-associative cache. Lines are identified by their line
// address (byte address >> lineShift).
//
// Invalid slots keep their tag at noTag, so the find loop tests one
// word per way — no separate validity check on the hit path.
type Cache struct {
	cfg       Config
	sets      int
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64 // sets*ways
	state     []State
	lruTick   []uint64
	clock     uint64
	st        Stats
	// touched lists the sets that received a line since the last Reset,
	// and touchedBits marks them (one bit per set), so Reset clears only
	// those sets. Both are maintained on the InsertWay miss path: every
	// other mutator acts on a resident line, whose set is already
	// listed. touched is allocated at full capacity so recording never
	// allocates.
	touched     []int32
	touchedBits []uint64
}

// noTag marks an invalid slot's tag. No reachable line address collides
// with it: line addresses are byte addresses shifted right by the line
// bits, so all-ones would require a byte address beyond the address
// space.
const noTag = ^uint64(0)

// New builds a cache from a geometry. Size, ways and line size must be
// positive powers-of-two-compatible values (sets = size/line/ways must
// come out a positive power of two).
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic("cache: geometry values must be positive")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes {
		panic("cache: size must be a multiple of line size")
	}
	sets := lines / cfg.Ways
	if sets <= 0 || sets*cfg.Ways != lines {
		panic("cache: lines must divide evenly into ways")
	}
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:         cfg,
		sets:        sets,
		ways:        cfg.Ways,
		lineShift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:     uint64(sets - 1),
		tags:        make([]uint64, n),
		state:       make([]State, n),
		lruTick:     make([]uint64, n),
		touched:     make([]int32, 0, sets),
		touchedBits: make([]uint64, (sets+63)/64),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) setOf(line uint64) int { return int(line & c.setMask) }

func (c *Cache) find(line uint64) int {
	base := int(line&c.setMask) * c.ways
	// One contiguous sub-slice per set: the way loop compares tags only
	// (invalid slots hold noTag) with bounds checks hoisted to the slice
	// expression — this is the hottest loop in the simulator's memory
	// system.
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == line {
			return base + w
		}
	}
	return -1
}

// Lookup probes the cache for the line containing addr. On a hit it
// refreshes LRU and returns the line state; on a miss it returns
// (false, Invalid). Lookup updates hit/miss statistics.
func (c *Cache) Lookup(addr uint64) (hit bool, st State) {
	_, hit, st = c.LookupWay(addr)
	return hit, st
}

// LookupWay is Lookup returning also the slot index of the hit line
// (-1 on a miss). The index stays valid while the line is resident —
// Insert overwrites a present line in place and eviction invalidates it
// — so callers may retain it as a way hint for Touch.
func (c *Cache) LookupWay(addr uint64) (idx int32, hit bool, st State) {
	c.clock++
	i := c.find(addr >> c.lineShift)
	if i < 0 {
		c.st.Misses++
		return -1, false, Invalid
	}
	c.st.Hits++
	c.lruTick[i] = c.clock
	return int32(i), true, c.state[i]
}

// Touch refreshes LRU and counts a hit for the resident line at a slot
// previously returned by LookupWay or InsertWay, skipping the
// associative search. Semantically identical to a Lookup that hits. It
// panics if the slot no longer holds line — a stale way hint, which
// would mean the caller's residency tracking broke.
func (c *Cache) Touch(idx int32, line uint64) {
	if c.tags[idx] != line {
		panic("cache: Touch with stale way hint")
	}
	c.clock++
	c.st.Hits++
	c.lruTick[idx] = c.clock
}

// Probe is like Lookup but does not touch LRU or statistics (used by
// external coherence agents).
func (c *Cache) Probe(addr uint64) (hit bool, st State) {
	idx := c.find(c.LineAddr(addr))
	if idx < 0 {
		return false, Invalid
	}
	return true, c.state[idx]
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	State    State
	Valid    bool
}

// Insert fills the line containing addr with the given state, evicting
// the LRU way if the set is full. If the line is already present its
// state is overwritten in place (no eviction). The displaced victim, if
// any, is returned so the caller can write back dirty data and send the
// directory a replacement hint.
func (c *Cache) Insert(addr uint64, st State) Victim {
	v, _ := c.InsertWay(addr, st)
	return v
}

// InsertWay is Insert returning also the slot that now holds the line
// (usable as a way hint for Touch, like a LookupWay index).
func (c *Cache) InsertWay(addr uint64, st State) (Victim, int32) {
	c.clock++
	line := c.LineAddr(addr)
	if idx := c.find(line); idx >= 0 {
		c.state[idx] = st
		c.lruTick[idx] = c.clock
		return Victim{}, int32(idx)
	}
	set := c.setOf(line)
	if w, b := set>>6, uint64(1)<<(set&63); c.touchedBits[w]&b == 0 {
		c.touchedBits[w] |= b
		c.touched = append(c.touched, int32(set))
	}
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if c.state[base+w] == Invalid {
			victim = base + w
			break
		}
		if c.lruTick[base+w] < c.lruTick[victim] {
			victim = base + w
		}
	}
	var out Victim
	if c.state[victim] != Invalid {
		out = Victim{LineAddr: c.tags[victim], State: c.state[victim], Valid: true}
		c.st.Evictions++
		if c.state[victim] == Modified {
			c.st.DirtyEvic++
		}
	}
	c.tags[victim] = line
	c.state[victim] = st
	c.lruTick[victim] = c.clock
	return out, int32(victim)
}

// SetState changes the state of a resident line; it reports whether the
// line was present. Setting Invalid removes the line (tag included, so
// the find fast path never ghost-hits an invalidated slot).
func (c *Cache) SetState(addr uint64, st State) bool {
	idx := c.find(c.LineAddr(addr))
	if idx < 0 {
		return false
	}
	c.state[idx] = st
	if st == Invalid {
		c.tags[idx] = noTag
	}
	return true
}

// Invalidate removes the line containing addr, returning its prior state
// and whether it was present.
func (c *Cache) Invalidate(addr uint64) (prior State, present bool) {
	idx := c.find(c.LineAddr(addr))
	if idx < 0 {
		return Invalid, false
	}
	prior = c.state[idx]
	c.state[idx] = Invalid
	c.tags[idx] = noTag
	return prior, true
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.st }

// ResetStats zeroes statistics; contents are preserved.
func (c *Cache) ResetStats() { c.st = Stats{} }

// Reset restores the freshly built state — every line invalid, LRU
// clock and statistics zero — so a cache can serve a new simulation
// without reallocating. It clears only the sets that received a line
// since the last Reset.
func (c *Cache) Reset() {
	for _, set := range c.touched {
		base := int(set) * c.ways
		for i := base; i < base+c.ways; i++ {
			c.tags[i] = noTag
			c.state[i] = Invalid
			c.lruTick[i] = 0
		}
		c.touchedBits[set>>6] = 0
	}
	c.touched = c.touched[:0]
	c.clock = 0
	c.st = Stats{}
}
