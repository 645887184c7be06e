package cache

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets × 2 ways × 32B lines = 256 bytes.
	return New(Config{SizeBytes: 256, Ways: 2, LineBytes: 32, HitCycles: 1})
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Modified: "M", State(9): "?"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestDefaultGeometries(t *testing.T) {
	l1 := New(L1Default())
	if l1.Sets() != 512 {
		t.Errorf("L1 sets = %d, want 512 (16kB direct-mapped, 32B lines)", l1.Sets())
	}
	l2 := New(L2Default())
	if l2.Sets() != 8192 {
		t.Errorf("L2 sets = %d, want 8192 (2MB 8-way, 32B lines)", l2.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.Lookup(0x100); hit {
		t.Fatal("cold cache must miss")
	}
	c.Insert(0x100, Shared)
	hit, st := c.Lookup(0x100)
	if !hit || st != Shared {
		t.Fatalf("Lookup after Insert = (%v, %v)", hit, st)
	}
	// Same line, different byte offset: still a hit.
	if hit, _ := c.Lookup(0x11F); !hit {
		t.Error("access within the same 32B line must hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways
	// Three lines mapping to set 0: line addresses 0, 4, 8 (set = line & 3).
	a, b, d := uint64(0*32), uint64(4*32), uint64(8*32)
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Lookup(a) // touch a; b becomes LRU
	v := c.Insert(d, Shared)
	if !v.Valid || v.LineAddr != c.LineAddr(b) {
		t.Errorf("victim = %+v, want line %d", v, c.LineAddr(b))
	}
	if hit, _ := c.Probe(b); hit {
		t.Error("b should have been evicted")
	}
	if hit, _ := c.Probe(a); !hit {
		t.Error("a should have survived")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small()
	a, b, d := uint64(0*32), uint64(4*32), uint64(8*32)
	c.Insert(a, Modified)
	c.Insert(b, Shared)
	c.Lookup(b) // a becomes LRU
	v := c.Insert(d, Shared)
	if !v.Valid || v.State != Modified {
		t.Errorf("victim = %+v, want modified line", v)
	}
	if c.Stats().DirtyEvic != 1 {
		t.Errorf("DirtyEvic = %d, want 1", c.Stats().DirtyEvic)
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared)
	v := c.Insert(0x40, Modified)
	if v.Valid {
		t.Error("re-insert must not evict")
	}
	_, st := c.Probe(0x40)
	if st != Modified {
		t.Errorf("state = %v, want M", st)
	}
	if c.Stats().Evictions != 0 {
		t.Error("no evictions expected")
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := small()
	if c.SetState(0x40, Modified) {
		t.Error("SetState on absent line must return false")
	}
	c.Insert(0x40, Shared)
	if !c.SetState(0x40, Modified) {
		t.Error("SetState on present line must return true")
	}
	prior, present := c.Invalidate(0x40)
	if !present || prior != Modified {
		t.Errorf("Invalidate = (%v, %v)", prior, present)
	}
	if _, present := c.Invalidate(0x40); present {
		t.Error("double invalidate must report absent")
	}
	if hit, _ := c.Probe(0x40); hit {
		t.Error("line must be gone")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := small()
	c.Insert(0*32, Shared)
	c.Insert(4*32, Shared)
	// Probing a repeatedly must NOT protect it from eviction.
	for i := 0; i < 10; i++ {
		c.Probe(0 * 32)
	}
	c.Lookup(4 * 32) // a (inserted first) is LRU despite probes
	v := c.Insert(8*32, Shared)
	if !v.Valid || v.LineAddr != 0 {
		t.Errorf("victim = %+v, want line 0", v)
	}
	s := c.Stats()
	if s.Hits != 1 {
		t.Errorf("probes must not count as hits: %+v", s)
	}
}

func TestReset(t *testing.T) {
	c := small()
	c.Insert(0x40, Modified)
	c.Insert(0x80, Shared)
	c.Lookup(0x40)
	c.Reset()
	if hit, _ := c.Probe(0x40); hit {
		t.Error("reset must invalidate everything")
	}
	if hit, _ := c.Probe(0x80); hit {
		t.Error("reset must invalidate everything")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("reset must zero the statistics, got %+v", s)
	}
	assertFresh(t, c)
}

// assertFresh requires c's set table, carved storage, LRU clock and
// statistics to equal a newly built cache's.
func assertFresh(t *testing.T, c *Cache) {
	t.Helper()
	f := New(c.cfg)
	if !slices.Equal(c.setBlock, f.setBlock) {
		t.Fatal("reset left set-table entries behind")
	}
	if len(c.blockSet) != 0 || len(c.tags) != 0 || len(c.state) != 0 || len(c.lruTick) != 0 {
		t.Fatalf("reset left %d carved blocks (%d/%d/%d slots)", len(c.blockSet), len(c.tags), len(c.state), len(c.lruTick))
	}
	if c.clock != 0 || c.st != (Stats{}) {
		t.Fatalf("reset left clock %d, stats %+v", c.clock, c.st)
	}
}

// Property: a cache dirtied by earlier runs and then Reset behaves
// exactly like a newly built one — every Lookup, Insert, SetState,
// Invalidate and Touch returns the same hits, victims and way indices,
// and the statistics agree. Three rounds per seed, so a Reset that
// leaves its own bookkeeping stale shows in the round after next.
func TestResetMatchesNewProperty(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Ways: 4, LineBytes: 32, HitCycles: 1} // 8 sets
	f := func(seed uint64) bool {
		reused := New(cfg)
		for round := uint64(0); round < 3; round++ {
			fresh := New(cfg)
			if !sameBehavior(t, reused, fresh, rand.New(rand.NewPCG(seed, round))) {
				return false
			}
			reused.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sameBehavior drives a and b with one random operation sequence over
// a 64-line footprint and reports whether every result and the final
// statistics agree.
func sameBehavior(t *testing.T, a, b *Cache, r *rand.Rand) bool {
	t.Helper()
	states := []State{Invalid, Shared, Modified}
	var hint int32 = -1
	var hintLine uint64
	for i := 0; i < 300; i++ {
		addr := uint64(r.IntN(64))*32 + uint64(r.IntN(32))
		st := states[r.IntN(3)]
		switch r.IntN(5) {
		case 0:
			ia, ha, sa := a.LookupWay(addr)
			ib, hb, sb := b.LookupWay(addr)
			if ia != ib || ha != hb || sa != sb {
				t.Logf("op %d LookupWay(%#x): (%d,%v,%v) vs (%d,%v,%v)", i, addr, ia, ha, sa, ib, hb, sb)
				return false
			}
			if ha {
				hint, hintLine = ia, addr>>5
			}
		case 1:
			if st == Invalid {
				st = Shared
			}
			va, ia := a.InsertWay(addr, st)
			vb, ib := b.InsertWay(addr, st)
			if va != vb || ia != ib {
				t.Logf("op %d InsertWay(%#x): (%+v,%d) vs (%+v,%d)", i, addr, va, ia, vb, ib)
				return false
			}
			hint, hintLine = ia, addr>>5
		case 2:
			if a.SetState(addr, st) != b.SetState(addr, st) {
				t.Logf("op %d SetState(%#x, %v) disagrees", i, addr, st)
				return false
			}
		case 3:
			pa, oka := a.Invalidate(addr)
			pb, okb := b.Invalidate(addr)
			if pa != pb || oka != okb {
				t.Logf("op %d Invalidate(%#x): (%v,%v) vs (%v,%v)", i, addr, pa, oka, pb, okb)
				return false
			}
		case 4:
			ra := hint >= 0 && a.tags[hint] == hintLine
			if rb := hint >= 0 && b.tags[hint] == hintLine; ra != rb {
				t.Logf("op %d: way hint %d resident in one cache only", i, hint)
				return false
			}
			if ra {
				a.Touch(hint, hintLine)
				b.Touch(hint, hintLine)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Logf("stats %+v vs %+v", a.Stats(), b.Stats())
		return false
	}
	return true
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(Config{SizeBytes: 128, Ways: 1, LineBytes: 32, HitCycles: 1}) // 4 sets
	c.Insert(0*32, Shared)
	v := c.Insert(4*32, Shared) // same set in a 4-set direct-mapped cache
	if !v.Valid || v.LineAddr != 0 {
		t.Errorf("conflict miss should evict line 0, got %+v", v)
	}
}

func TestNewPanics(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 32},
		{SizeBytes: 256, Ways: 0, LineBytes: 32},
		{SizeBytes: 256, Ways: 1, LineBytes: 0},
		{SizeBytes: 100, Ways: 1, LineBytes: 32}, // not a multiple
		{SizeBytes: 96, Ways: 1, LineBytes: 32},  // 3 sets: not pow2
		{SizeBytes: 256, Ways: 1, LineBytes: 24}, // line not pow2
		{SizeBytes: 256, Ways: 3, LineBytes: 32}, // ways don't divide
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: after Insert(addr), Probe(addr) hits with the inserted state,
// and total resident lines never exceed capacity.
func TestInsertProbeProperty(t *testing.T) {
	c := small()
	resident := map[uint64]State{}
	f := func(lineR uint8, mod bool) bool {
		addr := uint64(lineR%16) * 32
		st := Shared
		if mod {
			st = Modified
		}
		v := c.Insert(addr, st)
		if v.Valid {
			if resident[v.LineAddr] == Invalid {
				return false // evicted something not resident
			}
			delete(resident, v.LineAddr)
		}
		resident[c.LineAddr(addr)] = st
		if len(resident) > 8 { // 4 sets × 2 ways
			return false
		}
		hit, got := c.Probe(addr)
		return hit && got == st
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCarvedMatchesDense drives the carved cache and the dense oracle
// with one seeded random sequence of LookupWay, InsertWay, SetState,
// Invalidate and Touch over a footprint twice the capacity, so sets
// fill, evict and refill. Every hit, state, victim and the statistics
// must agree, and so must the way a line lands in (slot mod ways: the
// first-Invalid, least-tick, lowest-way victim rule). A slot either
// cache returned must serve as its Touch hint while the line stays
// resident. Storage must be exactly one block per distinct filled set.
// Each seed runs three rounds with a Reset between, so carved blocks
// are recycled with stale ticks.
func TestCarvedMatchesDense(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 16 << 10, Ways: 1, LineBytes: 32}, // 512 sets, direct-mapped
		{SizeBytes: 2048, Ways: 8, LineBytes: 32},     // 8 sets: evictions all the time
		{SizeBytes: 4096, Ways: 4, LineBytes: 32},     // 32 sets
	}
	for _, cfg := range geoms {
		f := func(seed uint64) bool {
			c := New(cfg)
			for round := uint64(0); round < 3; round++ {
				if !matchesDense(t, c, newDense(cfg), rand.New(rand.NewPCG(seed, round))) {
					return false
				}
				c.Reset()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%d-way, %d sets: %v", cfg.Ways, New(cfg).Sets(), err)
		}
	}
}

// matchesDense is one round of TestCarvedMatchesDense.
func matchesDense(t *testing.T, c *Cache, d *denseCache, r *rand.Rand) bool {
	t.Helper()
	states := []State{Invalid, Shared, Modified}
	ways := int32(c.ways)
	footprint := 2 * c.sets * c.ways
	hintC, hintD := map[uint64]int32{}, map[uint64]int32{}
	filled := map[int]bool{}
	for i := 0; i < 4*footprint; i++ {
		addr := uint64(r.IntN(footprint))*32 + uint64(r.IntN(32))
		line := addr >> 5
		st := states[r.IntN(3)]
		switch r.IntN(5) {
		case 0:
			ic, hc, sc := c.LookupWay(addr)
			id, hd, sd := d.LookupWay(addr)
			if hc != hd || sc != sd || (hc && ic%ways != id%ways) {
				t.Logf("op %d LookupWay(%#x): (%d,%v,%v) vs dense (%d,%v,%v)", i, addr, ic, hc, sc, id, hd, sd)
				return false
			}
			if hc {
				hintC[line], hintD[line] = ic, id
			}
		case 1:
			if st == Invalid {
				st = Shared
			}
			vc, ic := c.InsertWay(addr, st)
			vd, id := d.InsertWay(addr, st)
			if vc != vd || ic%ways != id%ways {
				t.Logf("op %d InsertWay(%#x): (%+v,%d) vs dense (%+v,%d)", i, addr, vc, ic, vd, id)
				return false
			}
			if ic < 0 || int(ic) >= c.sets*c.ways {
				t.Logf("op %d InsertWay(%#x): slot %d outside [0, sets·ways)", i, addr, ic)
				return false
			}
			hintC[line], hintD[line] = ic, id
			filled[int(line)&(c.sets-1)] = true
		case 2:
			if c.SetState(addr, st) != d.SetState(addr, st) {
				t.Logf("op %d SetState(%#x, %v) disagrees", i, addr, st)
				return false
			}
		case 3:
			pc, okc := c.Invalidate(addr)
			pd, okd := d.Invalidate(addr)
			if pc != pd || okc != okd {
				t.Logf("op %d Invalidate(%#x): (%v,%v) vs dense (%v,%v)", i, addr, pc, okc, pd, okd)
				return false
			}
		case 4:
			hc, _ := c.Probe(addr)
			if hd := d.find(line) >= 0; hc != hd {
				t.Logf("op %d Probe(%#x): %v vs dense %v", i, addr, hc, hd)
				return false
			}
			if hc {
				c.Touch(hintC[line], line) // panics on a stale hint
				d.Touch(hintD[line], line)
			}
		}
	}
	if c.Stats() != d.st {
		t.Logf("stats %+v vs dense %+v", c.Stats(), d.st)
		return false
	}
	got := map[uint64]State{}
	c.ForEach(func(line uint64, st State) { got[line] = st })
	if want := d.resident(); !maps.Equal(got, want) {
		t.Logf("ForEach visits %d lines, dense holds %d", len(got), len(want))
		return false
	}
	if n := len(filled) * c.ways; len(c.tags) != n || len(c.state) != n || len(c.lruTick) != n || len(c.blockSet) != len(filled) {
		t.Logf("carved %d slots in %d blocks, want %d filled sets × %d ways", len(c.tags), len(c.blockSet), len(filled), c.ways)
		return false
	}
	return true
}
