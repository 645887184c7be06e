package coherence

import (
	"math/bits"
	"sync"

	"dsmphase/internal/cache"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
)

// DirectoryProtocol is the line-granular directory-MSI engine: per-
// processor L1/L2 caches, per-node directories and memories, and the
// interconnect.
//
// The protocol executes transactions atomically at a point in simulated
// time (the commit time of the requesting instruction). Because the
// machine always advances the processor with the smallest local clock,
// transactions interleave in near time order and the busy-until state in
// links and banks produces contention-dependent latencies.
type DirectoryProtocol struct {
	n     int
	costs Costs
	l1    []*cache.Cache
	l2    []*cache.Cache
	dirs  []*Directory
	mems  []*memory.SDRAM
	net   network.Topology
	home  HomeMap
	lineB uint64
	// lineShift replaces the divisions/multiplications between byte and
	// line addresses with shifts on the hot path.
	lineShift uint
	// l1Hit/l2Hit are the hoisted hit latencies (previously re-read from
	// the cache Config per access).
	l1Hit uint64
	l2Hit uint64
	// l2way[proc][l1slot] is the L2 way hint: the L2 slot holding the
	// same line as the (valid) L1 slot. Maintained by fillL1; lets an L1
	// hit refresh the inclusive L2 copy's LRU and hit counters without a
	// second associative search. A hint is only read when its L1 slot
	// holds a valid line, and inclusion invalidates the L1 slot whenever
	// the L2 copy is displaced, so a live hint can never be stale
	// (cache.Touch asserts it).
	l2way    [][]int32
	st       Stats
	released bool
}

// cachePools holds one sync.Pool of reset caches per geometry
// (cache.Config → *sync.Pool). Release puts a simulation's L1s and L2s
// back and NewDirectory takes them out, so consecutive simulations of
// a grid share cache storage instead of allocating (and zeroing) a
// Table I L2 per processor each.
var cachePools sync.Map

// cachePool returns the pool for one cache geometry.
func cachePool(cfg cache.Config) *sync.Pool {
	if p, ok := cachePools.Load(cfg); ok {
		return p.(*sync.Pool)
	}
	p, _ := cachePools.LoadOrStore(cfg, &sync.Pool{New: func() any { return cache.New(cfg) }})
	return p.(*sync.Pool)
}

// NewDirectory assembles a directory-MSI engine. Params.Home maps a
// line address to its home node in [0, N).
func NewDirectory(params Params) *DirectoryProtocol {
	params.validate()
	if params.L1.LineBytes != params.L2.LineBytes {
		panic("coherence: L1 and L2 must share a line size")
	}
	n := params.N
	p := &DirectoryProtocol{
		n:     n,
		costs: params.Costs,
		l1:    make([]*cache.Cache, n),
		l2:    make([]*cache.Cache, n),
		dirs:  make([]*Directory, n),
		mems:  make([]*memory.SDRAM, n),
		net:   params.Net,
		home:  params.Home,
		lineB: uint64(params.L2.LineBytes),
		l1Hit: params.L1.HitCycles,
		l2Hit: params.L2.HitCycles,
		l2way: make([][]int32, n),
	}
	p.lineShift = uint(bits.TrailingZeros64(p.lineB))
	l1Slots := params.L1.SizeBytes / params.L1.LineBytes
	l1Pool, l2Pool := cachePool(params.L1), cachePool(params.L2)
	for i := 0; i < n; i++ {
		p.l1[i] = l1Pool.Get().(*cache.Cache)
		p.l2[i] = l2Pool.Get().(*cache.Cache)
		p.dirs[i] = NewDirectoryTable()
		p.mems[i] = memory.New(params.Mem)
		p.l2way[i] = make([]int32, l1Slots)
	}
	return p
}

// Kind identifies the backend.
func (p *DirectoryProtocol) Kind() Kind { return KindDirectory }

// N returns the processor count.
func (p *DirectoryProtocol) N() int { return p.n }

// Home returns the home node of the line containing addr.
func (p *DirectoryProtocol) Home(addr uint64) int { return p.home.Home(addr >> p.lineShift) }

// LineBytes returns the coherence granularity.
func (p *DirectoryProtocol) LineBytes() uint64 { return p.lineB }

// Directory exposes node i's directory (tests and invariant checks).
func (p *DirectoryProtocol) Directory(i int) *Directory { return p.dirs[i] }

// CacheL1 exposes processor i's L1 (tests and statistics).
func (p *DirectoryProtocol) CacheL1(i int) *cache.Cache { return p.l1[i] }

// CacheL2 exposes processor i's L2 (tests and statistics).
func (p *DirectoryProtocol) CacheL2(i int) *cache.Cache { return p.l2[i] }

// Memory exposes node i's SDRAM (tests and statistics).
func (p *DirectoryProtocol) Memory(i int) *memory.SDRAM { return p.mems[i] }

// Stats returns a copy of the protocol statistics.
func (p *DirectoryProtocol) Stats() Stats { return p.st }

// ResetStats zeroes the counters; cache, directory and timing state are
// preserved.
func (p *DirectoryProtocol) ResetStats() { p.st = Stats{} }

// Release resets every processor's L1 and L2 and returns them to their
// geometry's pool, and drops the directories. Stats stays valid; Access
// and CheckInvariants panic afterwards.
func (p *DirectoryProtocol) Release() {
	if p.released {
		return
	}
	for _, level := range [][]*cache.Cache{p.l1, p.l2} {
		pool := cachePool(level[0].Config())
		for _, c := range level {
			c.Reset()
			pool.Put(c)
		}
	}
	p.l1, p.l2, p.dirs, p.l2way = nil, nil, nil, nil
	p.released = true
}

// lineAddrBytes converts a line address back to a byte address.
func (p *DirectoryProtocol) lineAddrBytes(line uint64) uint64 { return line << p.lineShift }

// Access executes a load (write=false) or store (write=true) by proc at
// byte address addr starting at time now.
func (p *DirectoryProtocol) Access(now uint64, proc int, addr uint64, write bool) AccessResult {
	if p.released {
		panic(errReleased)
	}
	if write {
		p.st.Stores++
	} else {
		p.st.Loads++
	}
	line := addr >> p.lineShift
	l1 := p.l1[proc]
	l2 := p.l2[proc]

	// L1 probe: the L1 mirrors L2 residency AND state (inclusion is
	// maintained on every fill, state change and invalidation), so an L1
	// hit answers for the authoritative L2 state without the second
	// associative search. The inclusive L2 copy still observes the
	// access — its LRU tick and hit counter advance through the way
	// hint, exactly as the old always-probe-both path left them.
	l1Idx, l1Hit, l1State := l1.LookupWay(addr)
	if l1Hit {
		if !write || l1State == cache.Modified {
			// Read hit, or write hit on the owned line: complete in L1.
			l2.Touch(p.l2way[proc][l1Idx], line)
			p.st.L1Hits++
			return AccessResult{Done: now + p.l1Hit, HitLevel: 1}
		}
		// Write hit on a Shared line: upgrade (invalidate other
		// sharers). The L2 copy is Shared too; refresh it and take the
		// upgrade path at L2 hit latency, as before.
		l2.Touch(p.l2way[proc][l1Idx], line)
		return p.upgrade(now+p.l2Hit, proc, line, addr)
	}

	l2Idx, l2HitOK, l2State := l2.LookupWay(addr)
	if l2HitOK {
		if !write && (l2State == cache.Shared || l2State == cache.Modified) {
			// Read hit in L2 only.
			p.st.L2Hits++
			p.fillL1(proc, addr, l2State, l2Idx)
			return AccessResult{Done: now + p.l2Hit, HitLevel: 2}
		}
		if write && l2State == cache.Modified {
			// Write hit on owned line, L2 only.
			p.st.L2Hits++
			p.fillL1(proc, addr, cache.Modified, l2Idx)
			return AccessResult{Done: now + p.l2Hit, HitLevel: 2}
		}
		// Write hit on a Shared line: upgrade (invalidate other sharers).
		return p.upgrade(now+p.l2Hit, proc, line, addr)
	}

	// Miss in L2: go to the home directory.
	t := now + p.l2Hit // miss determination
	if write {
		return p.storeMiss(t, proc, line, addr)
	}
	return p.loadMiss(t, proc, line, addr)
}

// fillL1 inserts the line into L1, maintaining inclusion (victims are
// silently dropped: L1 never holds the only dirty copy because stores
// set Modified in both levels). l2Idx is the L2 slot holding the same
// line; it is recorded as the way hint for later L1 hits.
func (p *DirectoryProtocol) fillL1(proc int, addr uint64, st cache.State, l2Idx int32) {
	_, l1Idx := p.l1[proc].InsertWay(addr, st)
	p.l2way[proc][l1Idx] = l2Idx
}

// fillL2 inserts the line into L2, handling the displaced victim: dirty
// victims are written back to their home memory; clean victims send the
// home a replacement hint. Inclusion is maintained by invalidating the
// victim in L1. Writeback traffic occupies the network and the home bank
// at time t but does not extend the requester's critical path. The
// returned slot index is the new line's L2 way (for the L1 way hint).
func (p *DirectoryProtocol) fillL2(t uint64, proc int, addr uint64, st cache.State) int32 {
	v, idx := p.l2[proc].InsertWay(addr, st)
	if !v.Valid {
		return idx
	}
	vBytes := p.lineAddrBytes(v.LineAddr)
	p.l1[proc].Invalidate(vBytes)
	vh := p.home.Home(v.LineAddr)
	if v.State == cache.Modified {
		p.st.Writebacks++
		arr := p.net.Send(t, proc, vh, p.costs.DataBytes)
		p.mems[vh].Write(arr, vBytes)
		p.dirs[vh].Clear(v.LineAddr)
	} else {
		// Replacement hint keeps the sharer set tight so later upgrades
		// do not invalidate stale sharers.
		p.dirs[vh].RemoveSharer(v.LineAddr, proc)
	}
	return idx
}

// loadMiss fetches the line for reading.
func (p *DirectoryProtocol) loadMiss(t uint64, proc int, line, addr uint64) AccessResult {
	h := p.home.Home(line)
	lineBytes := p.lineAddrBytes(line)
	res := AccessResult{Remote: h != proc}
	p.st.DirectoryTrips++
	if h != proc {
		p.st.RemoteTrips++
		t = p.net.Send(t, proc, h, p.costs.CtrlBytes)
	}
	t += p.costs.DirectoryCycles
	dir := p.dirs[h]
	e := dir.Lookup(line)
	switch e.State {
	case ModifiedState:
		o := int(e.Owner)
		if o == proc {
			// Stale self-ownership cannot happen: our L2 missed, and a
			// miss means we gave the line up, which clears ownership.
			panic("coherence: directory owner missed in its own cache")
		}
		p.st.Forwards++
		// Forward to owner; owner downgrades M->S and supplies data.
		t = p.net.Send(t, h, o, p.costs.CtrlBytes)
		p.l2[o].SetState(lineBytes, cache.Shared)
		p.l1[o].SetState(lineBytes, cache.Shared)
		// Owner writes the dirty line back to home memory (off the
		// requester's critical path once data is forwarded).
		wb := p.net.Send(t, o, h, p.costs.DataBytes)
		p.mems[h].Write(wb, lineBytes)
		if o != proc {
			t = p.net.Send(t, o, proc, p.costs.DataBytes)
			res.Remote = true
		}
		dir.setEntry(line, Entry{
			Sharers: e.Sharers | 1<<uint(proc),
			Owner:   -1,
			State:   SharedState,
		})
	default:
		// Uncached or Shared: home memory supplies data.
		res.MemoryAccess = true
		t = p.mems[h].Read(t, lineBytes)
		dir.AddSharer(line, proc)
		if h != proc {
			t = p.net.Send(t, h, proc, p.costs.DataBytes)
		}
	}
	l2Idx := p.fillL2(t, proc, addr, cache.Shared)
	p.fillL1(proc, addr, cache.Shared, l2Idx)
	res.Done = t
	return res
}

// storeMiss fetches the line for exclusive write.
func (p *DirectoryProtocol) storeMiss(t uint64, proc int, line, addr uint64) AccessResult {
	h := p.home.Home(line)
	lineBytes := p.lineAddrBytes(line)
	res := AccessResult{Remote: h != proc}
	p.st.DirectoryTrips++
	if h != proc {
		p.st.RemoteTrips++
		t = p.net.Send(t, proc, h, p.costs.CtrlBytes)
	}
	t += p.costs.DirectoryCycles
	dir := p.dirs[h]
	e := dir.Lookup(line)
	switch e.State {
	case ModifiedState:
		o := int(e.Owner)
		if o == proc {
			panic("coherence: directory owner missed in its own cache")
		}
		p.st.Forwards++
		t = p.net.Send(t, h, o, p.costs.CtrlBytes)
		p.l2[o].Invalidate(lineBytes)
		p.l1[o].Invalidate(lineBytes)
		t = p.net.Send(t, o, proc, p.costs.DataBytes)
		res.Remote = true
	case SharedState:
		// Invalidate every sharer; the requester waits for the slowest ack.
		t = p.invalidateSharers(t, h, proc, line, e, &res)
		res.MemoryAccess = true
		rd := p.mems[h].Read(t, lineBytes)
		if rd > t {
			t = rd
		}
		if h != proc {
			t = p.net.Send(t, h, proc, p.costs.DataBytes)
		}
	default: // Uncached
		res.MemoryAccess = true
		t = p.mems[h].Read(t, lineBytes)
		if h != proc {
			t = p.net.Send(t, h, proc, p.costs.DataBytes)
		}
	}
	dir.SetOwner(line, proc)
	l2Idx := p.fillL2(t, proc, addr, cache.Modified)
	p.fillL1(proc, addr, cache.Modified, l2Idx)
	res.Done = t
	return res
}

// upgrade handles a store hit on a Shared line: the requester asks the
// home to invalidate all other sharers, then gains ownership.
func (p *DirectoryProtocol) upgrade(t uint64, proc int, line, addr uint64) AccessResult {
	h := p.home.Home(line)
	res := AccessResult{HitLevel: 2, Remote: h != proc}
	p.st.DirectoryTrips++
	if h != proc {
		p.st.RemoteTrips++
		t = p.net.Send(t, proc, h, p.costs.CtrlBytes)
	}
	t += p.costs.DirectoryCycles
	dir := p.dirs[h]
	e := dir.Lookup(line)
	t = p.invalidateSharers(t, h, proc, line, e, &res)
	if h != proc {
		// Grant message back to the requester.
		t = p.net.Send(t, h, proc, p.costs.CtrlBytes)
	}
	dir.SetOwner(line, proc)
	p.l2[proc].SetState(addr, cache.Modified)
	p.l1[proc].SetState(addr, cache.Modified)
	res.Done = t
	return res
}

// invalidateSharers sends invalidations from home h to every sharer of
// line except requester, invalidates their caches, and returns the time
// the last acknowledgment reaches h.
func (p *DirectoryProtocol) invalidateSharers(t uint64, h, requester int, line uint64, e Entry, res *AccessResult) uint64 {
	latest := t
	lineBytes := p.lineAddrBytes(line)
	for s := 0; s < p.n; s++ {
		if s == requester || e.Sharers&(1<<uint(s)) == 0 {
			continue
		}
		p.st.Invalidations++
		res.Invalidations++
		arr := p.net.Send(t, h, s, p.costs.CtrlBytes)
		p.l2[s].Invalidate(lineBytes)
		p.l1[s].Invalidate(lineBytes)
		ack := p.net.Send(arr, s, h, p.costs.CtrlBytes)
		if ack > latest {
			latest = ack
		}
	}
	return latest
}

// CheckInvariants validates global protocol invariants, returning a
// non-nil description on the first violation. Intended for tests.
func (p *DirectoryProtocol) CheckInvariants() error {
	if p.released {
		panic(errReleased)
	}
	for h := 0; h < p.n; h++ {
		var err error
		p.dirs[h].ForEach(func(line uint64, e Entry) {
			if err != nil {
				return
			}
			addr := p.lineAddrBytes(line)
			switch e.State {
			case ModifiedState:
				if e.Sharers != 1<<uint(e.Owner) {
					err = errf("line %#x: modified with sharers %#x owner %d", line, e.Sharers, e.Owner)
					return
				}
				if _, st := p.l2[e.Owner].Probe(addr); st != cache.Modified {
					err = errf("line %#x: owner %d cache state %v, want M", line, e.Owner, st)
					return
				}
				// No other cache may hold the line.
				for q := 0; q < p.n; q++ {
					if q == int(e.Owner) {
						continue
					}
					if hit, _ := p.l2[q].Probe(addr); hit {
						err = errf("line %#x: modified but also cached at %d", line, q)
						return
					}
				}
			case SharedState:
				if e.Sharers == 0 {
					err = errf("line %#x: shared with empty sharer set", line)
					return
				}
				for q := 0; q < p.n; q++ {
					hit, st := p.l2[q].Probe(addr)
					inSet := e.Sharers&(1<<uint(q)) != 0
					if hit && st == cache.Modified {
						err = errf("line %#x: cache %d modified under shared directory state", line, q)
						return
					}
					if hit && !inSet {
						err = errf("line %#x: cache %d holds line outside sharer set", line, q)
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
