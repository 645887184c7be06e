package coherence

import (
	"math/bits"

	"dsmphase/internal/memory"
	"dsmphase/internal/network"
)

// ivyPage is one page's row: which nodes hold a copy, which of them
// owns the latest data, and whether the owner holds it read-write.
// Node q holds the page iff bit q of Copyset is set, and may write it
// iff Writable && q == Owner — so a node's access right is derived from
// the row, and no per-node residency table can disagree with the
// manager. A page with no row — read as the zero row, whose Copyset is
// empty — has never been faulted in (its only copy is the home node's
// memory).
type ivyPage struct {
	Copyset  uint64
	Owner    int8
	Writable bool
}

// IVY is the page-granular DSM backend in the style of Li & Hudak's
// IVY: each node holds read-only or read-write page copies, access
// faults are resolved by the page's manager, and pages move as whole
// units over the interconnect.
//
// The manager for a page is its home node under Params.Home — the
// "fixed distributed manager" refinement of IVY's central manager (a
// HomeMap with shift ≥ 64 maps every page to node 0, recovering the
// strictly central variant). The manager tracks the owner and copyset;
// read faults are forwarded to the owner, which downgrades to
// read-only and supplies the page; write faults invalidate every other
// copy and transfer ownership. Backing memory lives at the home node
// and is read only for a page's first fault — after that the owner's
// copy is authoritative.
//
// IVY models no hardware caches: an access to a resident page with
// sufficient rights completes at the L1 hit latency (the model's
// "local memory is fast, faults are slow" regime). Whole-page
// transfers are priced honestly: the source's SDRAM banks serve every
// line of the page, and the interconnect carries PageBytes-sized
// messages through the same contention model as line transfers.
type IVY struct {
	n     int
	costs Costs
	mems  []*memory.SDRAM
	net   network.Topology
	home  HomeMap
	pageB uint64
	// pageShift converts byte addresses to page addresses.
	pageShift uint
	// lineB is the SDRAM transfer granularity used to price page reads.
	lineB uint64
	// linesPerPage is pageB/lineB, the bank occupancy of one page copy.
	linesPerPage int
	// hit is the resident-page access latency (Params.L1.HitCycles).
	hit uint64
	// pages holds one row per faulted-in page. Manager state is keyed
	// globally; the page's home node only matters for latency charging.
	pages    table[ivyPage]
	st       Stats
	released bool
}

// NewIVY assembles an IVY engine. Params.Home maps a page address to
// its home (= manager) node in [0, N); Params.PageBytes must be a
// power of two (zero selects DefaultPageBytes).
func NewIVY(params Params) *IVY {
	params.validate()
	pageB := params.PageBytes
	if pageB == 0 {
		pageB = DefaultPageBytes
	}
	if pageB&(pageB-1) != 0 {
		panic("coherence: IVY page size must be a power of two")
	}
	lineB := params.Mem.LineBytes
	if pageB < lineB {
		panic("coherence: IVY page must be at least one memory line")
	}
	n := params.N
	p := &IVY{
		n:            n,
		costs:        params.Costs,
		mems:         make([]*memory.SDRAM, n),
		net:          params.Net,
		home:         params.Home,
		pageB:        uint64(pageB),
		pageShift:    uint(bits.TrailingZeros64(uint64(pageB))),
		lineB:        uint64(lineB),
		linesPerPage: pageB / lineB,
		hit:          params.L1.HitCycles,
	}
	for i := 0; i < n; i++ {
		p.mems[i] = memory.New(params.Mem)
	}
	return p
}

// Kind identifies the backend.
func (p *IVY) Kind() Kind { return KindIVY }

// N returns the processor count.
func (p *IVY) N() int { return p.n }

// Home returns the home (manager) node of the page containing addr.
func (p *IVY) Home(addr uint64) int { return p.home.Home(addr >> p.pageShift) }

// LineBytes returns the coherence granularity — the page size.
func (p *IVY) LineBytes() uint64 { return p.pageB }

// PageBytes returns the page size.
func (p *IVY) PageBytes() uint64 { return p.pageB }

// Memory exposes node i's SDRAM (tests and statistics).
func (p *IVY) Memory(i int) *memory.SDRAM { return p.mems[i] }

// Stats returns a copy of the protocol statistics.
func (p *IVY) Stats() Stats { return p.st }

// ResetStats zeroes the counters; page rows and timing state are
// preserved.
func (p *IVY) ResetStats() { p.st = Stats{} }

// Release drops the page table. Stats stays valid; Access and
// CheckInvariants panic afterwards.
func (p *IVY) Release() {
	p.pages = table[ivyPage]{}
	p.released = true
}

// pageMsgBytes is the size of a whole-page data message (page plus the
// control header every message carries).
func (p *IVY) pageMsgBytes() int { return int(p.pageB) + p.costs.CtrlBytes }

// Access executes a load (write=false) or store (write=true) by proc at
// byte address addr starting at time now.
func (p *IVY) Access(now uint64, proc int, addr uint64, write bool) AccessResult {
	if p.released {
		panic(errReleased)
	}
	if write {
		p.st.Stores++
	} else {
		p.st.Loads++
	}
	page := addr >> p.pageShift
	e, _ := p.pages.get(page)
	held := e.Copyset&(1<<uint(proc)) != 0
	if held && (!write || (e.Writable && int(e.Owner) == proc)) {
		// Resident with sufficient rights: local access.
		p.st.L1Hits++
		return AccessResult{Done: now + p.hit, HitLevel: 1}
	}
	t := now + p.hit // fault detection
	p.st.PageFaults++
	switch {
	case held:
		// Write to a read-only copy: upgrade in place.
		return p.upgradeFault(t, proc, page, e)
	case write:
		return p.writeFault(t, proc, page, e)
	default:
		return p.readFault(t, proc, page, e)
	}
}

// managerTrip charges the fault's trip to the page manager and the
// manager's lookup time.
func (p *IVY) managerTrip(t uint64, proc, mgr int, res *AccessResult) uint64 {
	p.st.DirectoryTrips++
	if mgr != proc {
		p.st.RemoteTrips++
		res.Remote = true
		t = p.net.Send(t, proc, mgr, p.costs.CtrlBytes)
	}
	return t + p.costs.DirectoryCycles
}

// readPage prices a whole-page read out of node's SDRAM: every line of
// the page occupies its bank, and the data is ready when the last line
// is.
func (p *IVY) readPage(t uint64, node int, page uint64) uint64 {
	base := page << p.pageShift
	done := t
	for i := 0; i < p.linesPerPage; i++ {
		if d := p.mems[node].Read(t, base+uint64(i)*p.lineB); d > done {
			done = d
		}
	}
	return done
}

// readFault installs a read-only copy at proc; e is the page's row.
func (p *IVY) readFault(t uint64, proc int, page uint64, e ivyPage) AccessResult {
	var res AccessResult
	mgr := p.home.Home(page)
	t = p.managerTrip(t, proc, mgr, &res)
	if e.Copyset == 0 {
		// First fault: home memory supplies the page, requester becomes
		// the owner (holding it read-only until someone writes).
		res.MemoryAccess = true
		t = p.readPage(t, mgr, page)
		if mgr != proc {
			t = p.net.Send(t, mgr, proc, p.pageMsgBytes())
			res.Remote = true
		}
		e.Owner = int8(proc)
	} else {
		// Forward to the owner, which downgrades to read-only and
		// supplies the page (the owner cannot be proc: owners always
		// hold their page, so they never fault).
		o := int(e.Owner)
		p.st.Forwards++
		if o != mgr {
			t = p.net.Send(t, mgr, o, p.costs.CtrlBytes)
		}
		e.Writable = false
		t = p.net.Send(t, o, proc, p.pageMsgBytes())
		res.Remote = true
	}
	p.st.PageTransfers++
	e.Copyset |= 1 << uint(proc)
	p.pages.put(page, e)
	res.Done = t
	return res
}

// upgradeFault handles a write to a page proc already holds read-only:
// every other copy is invalidated and ownership transfers without a
// page copy — the analogue of the directory backend's upgrade, and like
// it, no memory or page data moves.
func (p *IVY) upgradeFault(t uint64, proc int, page uint64, e ivyPage) AccessResult {
	var res AccessResult
	// The page data is already resident — only the access right changes —
	// so, exactly like the directory upgrade, this classifies as a hit.
	res.HitLevel = 1
	mgr := p.home.Home(page)
	t = p.managerTrip(t, proc, mgr, &res)
	t = p.invalidateCopies(t, mgr, proc, &e, &res)
	if mgr != proc {
		// Grant message back to the requester.
		t = p.net.Send(t, mgr, proc, p.costs.CtrlBytes)
	}
	e.Owner = int8(proc)
	e.Writable = true
	p.pages.put(page, e)
	res.Done = t
	return res
}

// writeFault installs a read-write copy at a proc holding nothing:
// every existing copy is invalidated, the page moves from its owner
// (or, on a first fault, home memory), and ownership transfers.
func (p *IVY) writeFault(t uint64, proc int, page uint64, e ivyPage) AccessResult {
	var res AccessResult
	mgr := p.home.Home(page)
	t = p.managerTrip(t, proc, mgr, &res)
	if e.Copyset == 0 {
		res.MemoryAccess = true
		t = p.readPage(t, mgr, page)
		if mgr != proc {
			t = p.net.Send(t, mgr, proc, p.pageMsgBytes())
			res.Remote = true
		}
	} else {
		// The previous owner supplies the page and gives it up; the
		// manager invalidates the remaining readers in parallel, and the
		// requester waits for the slower of data and acks.
		o := int(e.Owner)
		p.st.Forwards++
		data := t
		if o != mgr {
			data = p.net.Send(data, mgr, o, p.costs.CtrlBytes)
		}
		e.Copyset &^= 1 << uint(o)
		p.st.PageInvalidations++
		res.Invalidations++
		data = p.net.Send(data, o, proc, p.pageMsgBytes())
		res.Remote = true
		acks := p.invalidateCopies(t, mgr, proc, &e, &res)
		t = data
		if acks > t {
			t = acks
		}
	}
	p.st.PageTransfers++
	p.pages.put(page, ivyPage{Copyset: 1 << uint(proc), Owner: int8(proc), Writable: true})
	res.Done = t
	return res
}

// invalidateCopies sends invalidations from the manager to every
// copyset member except requester and returns the time the last
// acknowledgment reaches the manager. The row's copyset shrinks to the
// requester's bit (if held).
func (p *IVY) invalidateCopies(t uint64, mgr, requester int, e *ivyPage, res *AccessResult) uint64 {
	latest := t
	for s := 0; s < p.n; s++ {
		if s == requester || e.Copyset&(1<<uint(s)) == 0 {
			continue
		}
		p.st.PageInvalidations++
		res.Invalidations++
		arr := p.net.Send(t, mgr, s, p.costs.CtrlBytes)
		ack := p.net.Send(arr, s, mgr, p.costs.CtrlBytes)
		if ack > latest {
			latest = ack
		}
	}
	e.Copyset &= 1 << uint(requester)
	return latest
}

// CheckInvariants validates IVY's global safety property — single
// writer, multiple readers over pages — on every page row: the owner is
// a node that holds the page, and a writable page has no other copy.
// Intended for tests.
func (p *IVY) CheckInvariants() error {
	if p.released {
		panic(errReleased)
	}
	var err error
	p.pages.each(func(page uint64, e ivyPage) {
		switch {
		case err != nil:
		case e.Owner < 0 || int(e.Owner) >= p.n:
			err = errf("page %#x: invalid owner %d", page, e.Owner)
		case e.Copyset&(1<<uint(e.Owner)) == 0:
			err = errf("page %#x: owner %d outside copyset %#x", page, e.Owner, e.Copyset)
		case e.Writable && e.Copyset != 1<<uint(e.Owner):
			err = errf("page %#x: writable at %d with other copies %#x", page, e.Owner, e.Copyset)
		}
	})
	return err
}
