package cache

import "math/bits"

// denseCache is the cache as it was before storage was carved per set:
// one slot array of sets·ways allocated up front, with set s at slots
// [s·ways, (s+1)·ways). It is kept only as the oracle the carved Cache
// is differentially tested against.
type denseCache struct {
	ways      int
	lineShift uint
	setMask   uint64
	tags      []uint64
	state     []State
	lruTick   []uint64
	clock     uint64
	st        Stats
}

func newDense(cfg Config) *denseCache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	n := sets * cfg.Ways
	d := &denseCache{
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, n),
		state:     make([]State, n),
		lruTick:   make([]uint64, n),
	}
	for i := range d.tags {
		d.tags[i] = noTag
	}
	return d
}

func (d *denseCache) find(line uint64) int {
	base := int(line&d.setMask) * d.ways
	for w := 0; w < d.ways; w++ {
		if d.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

func (d *denseCache) LookupWay(addr uint64) (int32, bool, State) {
	d.clock++
	i := d.find(addr >> d.lineShift)
	if i < 0 {
		d.st.Misses++
		return -1, false, Invalid
	}
	d.st.Hits++
	d.lruTick[i] = d.clock
	return int32(i), true, d.state[i]
}

func (d *denseCache) Touch(idx int32, line uint64) {
	if d.tags[idx] != line {
		panic("dense: Touch with stale way hint")
	}
	d.clock++
	d.st.Hits++
	d.lruTick[idx] = d.clock
}

func (d *denseCache) InsertWay(addr uint64, st State) (Victim, int32) {
	d.clock++
	line := addr >> d.lineShift
	if idx := d.find(line); idx >= 0 {
		d.state[idx] = st
		d.lruTick[idx] = d.clock
		return Victim{}, int32(idx)
	}
	base := int(line&d.setMask) * d.ways
	victim := base
	for w := 0; w < d.ways; w++ {
		if d.state[base+w] == Invalid {
			victim = base + w
			break
		}
		if d.lruTick[base+w] < d.lruTick[victim] {
			victim = base + w
		}
	}
	var out Victim
	if d.state[victim] != Invalid {
		out = Victim{LineAddr: d.tags[victim], State: d.state[victim], Valid: true}
		d.st.Evictions++
		if d.state[victim] == Modified {
			d.st.DirtyEvic++
		}
	}
	d.tags[victim] = line
	d.state[victim] = st
	d.lruTick[victim] = d.clock
	return out, int32(victim)
}

func (d *denseCache) SetState(addr uint64, st State) bool {
	idx := d.find(addr >> d.lineShift)
	if idx < 0 {
		return false
	}
	d.state[idx] = st
	if st == Invalid {
		d.tags[idx] = noTag
	}
	return true
}

func (d *denseCache) Invalidate(addr uint64) (State, bool) {
	idx := d.find(addr >> d.lineShift)
	if idx < 0 {
		return Invalid, false
	}
	prior := d.state[idx]
	d.state[idx] = Invalid
	d.tags[idx] = noTag
	return prior, true
}

// resident maps every valid line to its state.
func (d *denseCache) resident() map[uint64]State {
	m := map[uint64]State{}
	for i, st := range d.state {
		if st != Invalid {
			m[d.tags[i]] = st
		}
	}
	return m
}
