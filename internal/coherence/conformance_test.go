package coherence

import (
	"testing"

	"dsmphase/internal/cache"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
	"dsmphase/internal/rng"
)

// Protocol-conformance suite: both backends run identical traces and
// must agree wherever the protocols' semantics overlap. Private
// (no-sharing) traces at matched granularity must classify hits and
// misses identically and perform the same memory accesses; under
// arbitrary shared traffic each backend must keep its own invariants
// and per-processor time must never run backwards.

// confCaches returns fully-associative cache geometries so hit/miss
// classification depends only on footprint, never on set conflicts
// (page-strided private regions map to few sets in the direct-mapped
// Table I L1).
func confCaches() (l1, l2 cache.Config) {
	l1 = cache.Config{SizeBytes: 16 << 10, Ways: 512, LineBytes: 32, HitCycles: 1}
	l2 = cache.Config{SizeBytes: 2 << 20, Ways: 1 << 16, LineBytes: 32, HitCycles: 12}
	return l1, l2
}

// confAddr builds an address homed at node h: the same layout the
// machine layer uses, scaled down (bit 20 starts the home field).
func confAddr(h int, off uint64) uint64 {
	return uint64(h)<<20 | (off & (1<<20 - 1))
}

// confParams assembles matched Params for a backend pair: the home of
// an address is its top bits in both (directory maps lines, IVY maps
// pages, both recover home = addr>>20).
func confParams(n int, pageBytes int) (dir, ivy Params) {
	l1, l2 := confCaches()
	dir = Params{
		N:     n,
		L1:    l1,
		L2:    l2,
		Mem:   memory.DefaultConfig(),
		Net:   network.New(n, network.DefaultConfig()),
		Costs: DefaultCosts(),
		Home:  NewHomeMap(20-5, n), // line address >> 15 = addr >> 20
	}
	pageShift := uint(0)
	for 1<<pageShift < pageBytes {
		pageShift++
	}
	ivy = dir
	ivy.Net = network.New(n, network.DefaultConfig())
	ivy.PageBytes = pageBytes
	ivy.Home = NewHomeMap(20-pageShift, n) // page address back to addr >> 20
	return dir, ivy
}

// confAccess is one trace step.
type confAccess struct {
	proc  int
	addr  uint64
	write bool
}

// runTrace drives a backend with per-processor clocks, asserting
// monotone completion times, and returns each access's result.
func runTrace(t *testing.T, p Protocol, trace []confAccess) []AccessResult {
	t.Helper()
	clocks := make([]uint64, p.N())
	out := make([]AccessResult, 0, len(trace))
	for i, a := range trace {
		res := p.Access(clocks[a.proc], a.proc, a.addr, a.write)
		if res.Done < clocks[a.proc] {
			t.Fatalf("%s access %d (proc %d): Done %d before now %d",
				p.Kind(), i, a.proc, res.Done, clocks[a.proc])
		}
		clocks[a.proc] = res.Done
		out = append(out, res)
	}
	return out
}

// privateTrace builds a no-sharing trace: every processor touches only
// its own region, revisiting each granule so both cold and warm
// behavior are exercised, with a load→store pair on every granule to
// cover the upgrade path.
func privateTrace(n int) []confAccess {
	const granules = 64
	var trace []confAccess
	for g := 0; g < granules; g++ {
		for proc := 0; proc < n; proc++ {
			addr := confAddr(proc, uint64(g)*32)
			trace = append(trace,
				confAccess{proc: proc, addr: addr, write: false},
				confAccess{proc: proc, addr: addr, write: true},
				confAccess{proc: proc, addr: addr + 8, write: false},
				confAccess{proc: proc, addr: addr, write: true},
			)
		}
	}
	return trace
}

// TestConformancePrivateTraces pins the overlap the two backends must
// share: with the page size matched to the line size, a no-sharing
// trace classifies identically (hit vs miss, access by access) and
// performs the identical set of memory accesses.
func TestConformancePrivateTraces(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		dirP, ivyP := confParams(n, 32) // page == line: granularities match
		dir := NewDirectory(dirP)
		ivy := NewIVY(ivyP)
		trace := privateTrace(n)
		dres := runTrace(t, dir, trace)
		ires := runTrace(t, ivy, trace)
		for i := range trace {
			dMiss := dres[i].HitLevel == 0
			iMiss := ires[i].HitLevel == 0
			if dMiss != iMiss {
				t.Fatalf("n=%d access %d (%+v): directory miss=%v, ivy miss=%v",
					n, i, trace[i], dMiss, iMiss)
			}
			if dres[i].MemoryAccess() != ires[i].MemoryAccess() {
				t.Fatalf("n=%d access %d (%+v): directory mem=%v, ivy mem=%v",
					n, i, trace[i], dres[i].MemoryAccess(), ires[i].MemoryAccess())
			}
		}
		var dMem, iMem int
		for i := range trace {
			if dres[i].MemoryAccess() {
				dMem++
			}
			if ires[i].MemoryAccess() {
				iMem++
			}
		}
		if dMem != iMem {
			t.Errorf("n=%d: memory accesses differ: directory %d, ivy %d", n, dMem, iMem)
		}
		ds, is := dir.Stats(), ivy.Stats()
		if ds.Loads != is.Loads || ds.Stores != is.Stores {
			t.Errorf("n=%d: op counts differ: directory %d/%d, ivy %d/%d",
				n, ds.Loads, ds.Stores, is.Loads, is.Stores)
		}
		// Private traffic must never look shared to either backend.
		if ds.Invalidations != 0 || ds.Forwards != 0 {
			t.Errorf("n=%d: directory saw sharing on a private trace: %+v", n, ds)
		}
		if is.PageInvalidations != 0 || is.Forwards != 0 {
			t.Errorf("n=%d: ivy saw sharing on a private trace: %+v", n, is)
		}
		for _, p := range []Protocol{dir, ivy} {
			if err := p.CheckInvariants(); err != nil {
				t.Errorf("n=%d %s: %v", n, p.Kind(), err)
			}
		}
	}
}

// managerModes returns the IVY variants the shared-traffic tests run:
// the fixed distributed manager (each page managed by its home node)
// and the central manager (a HomeMap with shift ≥ 64 puts every page's
// manager at node 0).
func managerModes(ivy Params) map[string]Params {
	central := ivy
	central.Net = network.New(ivy.N, network.DefaultConfig())
	central.Home = NewHomeMap(64, ivy.N)
	return map[string]Params{"distributed": ivy, "central": central}
}

// backends returns a directory backend and one IVY backend per manager
// mode, labeled for failure messages.
func backends(n int) map[string]Protocol {
	dirP, ivyP := confParams(n, DefaultPageBytes)
	out := map[string]Protocol{"directory": NewDirectory(dirP)}
	for mode, p := range managerModes(ivyP) {
		out["ivy/"+mode] = NewIVY(p)
	}
	return out
}

// sharedTrace builds a seeded trace of n processors: half the traffic
// lands in a 4-page shared region at home 0, half in the processor's
// private region, one access in four a store.
func sharedTrace(n, accesses int, seed uint64) []confAccess {
	var trace []confAccess
	h := rng.Hash64(seed)
	for i := 0; i < accesses; i++ {
		h = rng.Hash64(h)
		proc := int(h % uint64(n))
		h = rng.Hash64(h)
		var addr uint64
		if h&1 == 0 {
			h = rng.Hash64(h)
			addr = confAddr(0, h%(4*DefaultPageBytes)&^7)
		} else {
			h = rng.Hash64(h)
			addr = confAddr(proc, 1<<19|h%(16<<10)&^7)
		}
		h = rng.Hash64(h)
		trace = append(trace, confAccess{proc: proc, addr: addr, write: h&3 == 0})
	}
	return trace
}

// TestConformanceSeededFuzz drives every backend — IVY under both
// manager modes — with the same pseudo-random shared-and-private
// traffic (default 4 kB IVY pages, so the backends genuinely diverge in
// timing) and checks the properties that must survive any
// interleaving: per-processor completion times are monotone (runTrace
// asserts it), each backend's invariants hold throughout — single
// writer / multiple readers in each backend's own granularity — and
// every access completes.
func TestConformanceSeededFuzz(t *testing.T) {
	const (
		n        = 4
		accesses = 4_000
	)
	for seed := uint64(1); seed <= 3; seed++ {
		trace := sharedTrace(n, accesses, seed)
		for name, p := range backends(n) {
			res := runTrace(t, p, trace)
			if len(res) != len(trace) {
				t.Fatalf("%s: %d results for %d accesses", name, len(res), len(trace))
			}
			if err := p.CheckInvariants(); err != nil {
				t.Errorf("seed %d %s: %v", seed, name, err)
			}
			st := p.Stats()
			if st.Loads+st.Stores != uint64(len(trace)) {
				t.Errorf("seed %d %s: %d+%d ops accounted, want %d",
					seed, name, st.Loads, st.Stores, len(trace))
			}
		}
	}
}

// TestConformanceInvariantsMidTrace re-checks invariants repeatedly
// while shared traffic is in flight, not just at the end — a backend
// whose directory rows and cached copies (or whose page rows) pass
// through an inconsistent state would slip past an end-only check.
func TestConformanceInvariantsMidTrace(t *testing.T) {
	const n = 4
	for name, p := range backends(n) {
		clocks := make([]uint64, n)
		h := rng.Hash64(42)
		for i := 0; i < 1_000; i++ {
			h = rng.Hash64(h)
			proc := int(h % n)
			h = rng.Hash64(h)
			addr := confAddr(0, h%(2*DefaultPageBytes)&^7)
			h = rng.Hash64(h)
			res := p.Access(clocks[proc], proc, addr, h&1 == 0)
			clocks[proc] = res.Done
			if i%50 == 0 {
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("%s after access %d: %v", name, i, err)
				}
			}
		}
	}
}
