package workloads

// The phased access-pattern IR. A workload is a Program: an ordered
// sequence of Phases, each a composition of Blocks with an explicit
// placement policy, sharing degree, per-thread skew and barrier
// structure. Program.Threads is the only way a workload becomes
// threads, so every workload inherits the determinism contract:
// instruction streams are pure functions of (n, size, seed),
// independent of host, shard split or worker count. Regular patterns
// compose the primitive blocks below, which the DSL and trace front
// ends (dsl.go, tracegen.go) also target; work whose split across
// threads is irregular (lu, radix, fmm, art, equake) is a kernel, a
// block given by two functions. TestStreamDigests pins every
// built-in's per-batch stream.

import (
	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
)

// Ctx is the run geometry a Program is compiled against: the processor
// count and the workload base seed. Blocks receive it both when listing
// their work items and when emitting instructions, so data partitioning
// and seeded choices can depend on n without baking n into the Program.
type Ctx struct {
	// N is the processor/thread count.
	N int
	// Seed is the workload base seed feeding every seeded choice.
	Seed uint64
}

// BlockItem is one schedulable unit of a block's work. A block splits
// its per-thread work into items (typically chunks of rows, walks or
// instructions) so the emitter produces bounded batches and the
// scheduler can interleave threads at item granularity.
type BlockItem struct {
	A, B, C, D int
}

// Block is an IR primitive: a parameterized access pattern that knows
// how to partition its work across threads (Items) and how to render
// one work item into instructions (Emit). Emit must be a pure function
// of (ctx, item, receiver fields) — no mutable state — so repeated
// drains of the same Program are byte-identical.
type Block interface {
	// Items lists thread tid's work for one execution of the block, in
	// program order.
	Items(c *Ctx, tid int) []BlockItem
	// Emit renders one work item into the emitter.
	Emit(c *Ctx, e *isa.Emitter, it BlockItem)
}

// Phase is one barrier-delimited step of a Program: every thread
// executes its share of every block, then (unless NoBarrier) all
// threads meet at a barrier. Blocks within a phase run back-to-back on
// each thread in slice order.
type Phase struct {
	Blocks []Block
	// NoBarrier suppresses the phase-closing barrier; use only for
	// phases that deliberately let threads run ahead.
	NoBarrier bool
}

// Program is a compiled workload: a barrier PC plus the phase
// sequence. Threads lowers it to one script per thread — one step per
// BlockItem, one barrier step closing each phase — so the batching
// (and therefore the scheduler interleaving) of a workload is exactly
// the item structure its blocks declare.
type Program struct {
	// BarrierPC is the static PC of the Sync instruction closing each
	// phase.
	BarrierPC uint32
	Phases    []Phase
}

// Threads compiles the program for n processors under the given seed.
func (p *Program) Threads(n int, seed uint64) []isa.Thread {
	ctx := &Ctx{N: n, Seed: seed}
	out := make([]isa.Thread, n)
	for tid := 0; tid < n; tid++ {
		var steps []step
		for _, ph := range p.Phases {
			for _, b := range ph.Blocks {
				for _, it := range b.Items(ctx, tid) {
					steps = append(steps, step{block: b, it: it})
				}
			}
			if !ph.NoBarrier {
				steps = append(steps, step{})
			}
		}
		out[tid] = &script{ctx: ctx, steps: steps, barrierPC: p.BarrierPC}
	}
	return out
}

// step is one batch of a lowered thread: a block's work item, or a
// barrier arrival when block is nil.
type step struct {
	block Block
	it    BlockItem
}

// script is a lowered Program thread: it emits one step per batch.
type script struct {
	ctx       *Ctx
	steps     []step
	pos       int
	barrierPC uint32
}

func (t *script) NextBatch(e *isa.Emitter) bool {
	if t.pos >= len(t.steps) {
		return false
	}
	s := t.steps[t.pos]
	t.pos++
	if s.block == nil {
		e.Sync(t.barrierPC)
	} else {
		s.block.Emit(t.ctx, e, s.it)
	}
	return true
}

// kernel is a block given by two functions, for work whose split across
// threads is irregular (owned matrix blocks or cells, sampled winners).
// List returns thread tid's items and Render emits one; both close over
// the workload's run state, so neither reads the Ctx.
type kernel struct {
	List   func(tid int) []BlockItem
	Render func(e *isa.Emitter, it BlockItem)
}

func (k *kernel) Items(_ *Ctx, tid int) []BlockItem { return k.List(tid) }

func (k *kernel) Emit(_ *Ctx, e *isa.Emitter, it BlockItem) { k.Render(e, it) }

// OwnerThread as a Region home means "the node of the thread touching
// the region" — i.e. thread-private or thread-partitioned data.
const OwnerThread = -1

// Region is a block's placement policy: where its data lives and how
// thread slots and element indices map to byte addresses. The address
// of element e touched by (or belonging to) thread t is
//
//	AddrAt(home, Base + (t*SlotBytes) mod SlotWrap + e*ElemBytes)
//
// with home = t itself when Home is OwnerThread. SlotBytes spaces
// threads apart within a shared region (SlotBytes < cache line size
// induces false sharing; a multiple of the page size induces
// page-granular conflicts under IVY); SlotWrap folds the slots so many
// threads collide in a bounded footprint.
type Region struct {
	// Home is the owning node, or OwnerThread.
	Home int
	// Base is the byte offset of the region within the home's memory.
	Base uint64
	// ElemBytes is the stride between consecutive element indices.
	ElemBytes uint64
	// SlotBytes is the per-thread slot offset within the region.
	SlotBytes uint64
	// SlotWrap, when non-zero, wraps the slot offset modulo this many
	// bytes.
	SlotWrap uint64
}

// addr resolves the address of element elem in thread tid's slot.
func (r Region) addr(c *Ctx, tid, elem int) uint64 {
	home := r.Home
	if home == OwnerThread {
		home = tid
	}
	slot := uint64(tid) * r.SlotBytes
	if r.SlotWrap > 0 {
		slot %= r.SlotWrap
	}
	return machine.AddrAt(home, r.Base+slot+uint64(elem)*r.ElemBytes)
}

// skewCount applies per-thread load imbalance: thread 0 gets pct%
// extra work, falling off linearly to none on the last thread. Skew is
// what makes barrier stall time (and thus the DDS contention term)
// phase-dependent in irregular codes like barnes.
func skewCount(count, pct, tid, n int) int {
	if pct <= 0 || n <= 1 {
		return count
	}
	return count + count*pct*(n-1-tid)/(100*(n-1))
}

// gridAddr is the canonical strip-partitioned 2-D placement shared by
// the stencil-family blocks: row r of a grid×grid array lives on node
// r*N/grid, and multigrid level l occupies a disjoint window shifted
// by l<<shift.
func gridAddr(c *Ctx, row, col, grid, level int, shift uint, elemBytes uint64) uint64 {
	owner := row * c.N / grid
	return machine.AddrAt(owner, uint64(level)<<shift+uint64(row*grid+col)*elemBytes)
}

// ---------------------------------------------------------------------------
// Primitive blocks
// ---------------------------------------------------------------------------

// Stride sweeps Count elements of a region linearly, optionally
// wrapping the element index and shifting the start offset (phase
// drift). One item per thread; the loop body is
//
//	Load [Int] [FP] [Store] LoopBranch
//
// at consecutive PCs, which is exactly the legacy fsstencil/pagethrash
// inner-loop shape.
type Stride struct {
	PC     uint32
	Count  int // elements per thread per execution
	Wrap   int // element-index wrap (0 = unbounded)
	Offset int // starting element offset
	IntOps int
	FPOps  int
	Store  bool
	Skew   int // percent extra work on thread 0, linear falloff
	Region Region
}

func (b *Stride) Items(c *Ctx, tid int) []BlockItem {
	return []BlockItem{{A: tid}}
}

func (b *Stride) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	tid := it.A
	n := skewCount(b.Count, b.Skew, tid, c.N)
	for i := 0; i < n; i++ {
		elem := i + b.Offset
		if b.Wrap > 0 {
			elem %= b.Wrap
		}
		a := b.Region.addr(c, tid, elem)
		pc := b.PC
		e.Load(pc, a)
		pc += 4
		if b.IntOps > 0 {
			e.Int(pc, b.IntOps)
			pc += 4
		}
		if b.FPOps > 0 {
			e.FP(pc, b.FPOps)
			pc += 4
		}
		if b.Store {
			e.Store(pc, a)
			pc += 4
		}
		e.LoopBranch(pc, i, n)
	}
}

// Share is the sharing-degree primitive: threads are partitioned into
// groups of Degree consecutive ids; each round a thread stores its own
// slot and loads every group-mate's slot. With slots packed tighter
// than a cache line this is the false-sharing generator; with Degree n
// it is all-to-all exchange.
type Share struct {
	PC     uint32
	Count  int // exchange rounds per execution
	Degree int // sharing group size
	IntOps int
	Slots  Region // slot q of the exchange area = Slots.addr(q, 0)
}

func (b *Share) Items(c *Ctx, tid int) []BlockItem {
	return []BlockItem{{A: tid}}
}

func (b *Share) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	tid := it.A
	deg := b.Degree
	if deg < 1 {
		deg = 1
	}
	base := tid / deg * deg
	var mates []int
	for q := base; q < base+deg && q < c.N; q++ {
		if q != tid {
			mates = append(mates, q)
		}
	}
	own := b.Slots.addr(c, tid, 0)
	loopPC := b.PC + 8 + 4*uint32(deg)
	for u := 0; u < b.Count; u++ {
		e.Store(b.PC, own)
		e.Int(b.PC+4, b.IntOps)
		for j, q := range mates {
			e.Load(b.PC+8+4*uint32(j), b.Slots.addr(c, q, 0))
		}
		e.LoopBranch(loopPC, u, b.Count)
	}
}

// Stencil is one red/black relaxation sweep colour over a
// strip-partitioned grid: each thread relaxes its row strip, reading
// the rows above and below (the halo exchange that makes boundary rows
// remote). Work is chunked RowChunk rows per item so threads
// interleave within a sweep.
type Stencil struct {
	PC       uint32
	Grid     int // grid side length
	Colour   int // red/black colour of this sweep
	Level    int // multigrid level (disjoint address window per level)
	ColStep  int // column sampling step
	FPOps    int
	RowChunk int
	// LevelShift/ElemBytes parameterize gridAddr.
	LevelShift uint
	ElemBytes  uint64
}

func (b *Stencil) Items(c *Ctx, tid int) []BlockItem {
	lo, hi := tid*b.Grid/c.N, (tid+1)*b.Grid/c.N
	chunk := b.RowChunk
	if chunk < 1 {
		chunk = 1
	}
	var items []BlockItem
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		items = append(items, BlockItem{A: s, B: e})
	}
	return items
}

func (b *Stencil) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	lo, hi, grid := it.A, it.B, b.Grid
	pc := b.PC
	colStep := b.ColStep
	if colStep < 1 {
		colStep = 1
	}
	// The per-row owner divisions and base offsets are loop-invariant
	// across a row's columns; hoisting them keeps stream generation off
	// the Table II throughput floor. cell(r, col) remains exactly
	// gridAddr(c, r, col, grid, Level, LevelShift, ElemBytes).
	levelOff := uint64(b.Level) << b.LevelShift
	cols := (grid-2)/colStep + 1
	for row := lo; row < hi; row++ {
		up, down := row-1, row+1
		if up < 0 {
			up = 0
		}
		if down > grid-1 {
			down = grid - 1
		}
		rowOwn, rowOff := row*c.N/grid, levelOff+uint64(row*grid)*b.ElemBytes
		upOwn, upOff := up*c.N/grid, levelOff+uint64(up*grid)*b.ElemBytes
		downOwn, downOff := down*c.N/grid, levelOff+uint64(down*grid)*b.ElemBytes
		start := (row + b.Colour) % 2
		for col := start + 1; col < grid-1; col += colStep {
			cb := uint64(col) * b.ElemBytes
			a := machine.AddrAt(rowOwn, rowOff+cb)
			e.Load(pc+0, a)
			e.Load(pc+4, machine.AddrAt(upOwn, upOff+cb))
			e.Load(pc+8, machine.AddrAt(downOwn, downOff+cb))
			e.FP(pc+12, b.FPOps)
			e.Store(pc+16, a)
			e.LoopBranch(pc+20, col/colStep, cols)
		}
		e.LoopBranch(pc+24, row-lo, hi-lo)
	}
}

// Reduction sweeps each thread's strip of a shared, strip-partitioned
// array and then read-modify-writes a single global accumulator —
// the serialization hotspot that gives reduction phases their
// distinctive home-concentration signature.
type Reduction struct {
	PC    uint32
	Elems int // total elements, strip-partitioned across threads
	FPOps int
	// Element e of the swept array lives at
	// AddrAt(e*N/Elems, Base + e*ElemBytes).
	Base      uint64
	ElemBytes uint64
	// Accum places the shared accumulator (element 0 of the region).
	Accum Region
}

func (b *Reduction) Items(c *Ctx, tid int) []BlockItem {
	return []BlockItem{{A: tid * b.Elems / c.N, B: (tid + 1) * b.Elems / c.N}}
}

func (b *Reduction) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	lo, hi := it.A, it.B
	pc := b.PC
	for el := lo; el < hi; el++ {
		owner := el * c.N / b.Elems
		e.Load(pc+0, machine.AddrAt(owner, b.Base+uint64(el)*b.ElemBytes))
		e.FP(pc+4, b.FPOps)
		e.LoopBranch(pc+8, el-lo, hi-lo)
	}
	accum := b.Accum.addr(c, 0, 0)
	e.Load(pc+12, accum)
	e.FP(pc+16, b.FPOps)
	e.Store(pc+20, accum)
}

// Restrict is the multigrid projection companion of Stencil: each
// thread projects its strip of the fine grid onto the next-coarser
// level's window.
type Restrict struct {
	PC         uint32
	Grid       int // fine grid side; the coarse side is Grid/2
	Level      int // fine level; writes land on Level+1
	ColStep    int
	FPOps      int
	LevelShift uint
	ElemBytes  uint64
}

func (b *Restrict) Items(c *Ctx, tid int) []BlockItem {
	lo, hi := tid*b.Grid/c.N, (tid+1)*b.Grid/c.N
	return []BlockItem{{A: lo / 2, B: hi / 2}}
}

func (b *Restrict) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	lo, hi := it.A, it.B
	pc := b.PC
	coarse := b.Grid / 2
	colStep := b.ColStep
	if colStep < 1 {
		colStep = 1
	}
	if hi > coarse {
		hi = coarse
	}
	for row := lo; row < hi; row++ {
		for col := 0; col < coarse; col += colStep {
			e.Load(pc+0, gridAddr(c, row*2, col*2, b.Grid, b.Level, b.LevelShift, b.ElemBytes))
			e.Load(pc+4, gridAddr(c, row*2+1, col*2, b.Grid, b.Level, b.LevelShift, b.ElemBytes))
			e.FP(pc+8, b.FPOps)
			e.Store(pc+12, gridAddr(c, row, col, coarse, b.Level+1, b.LevelShift, b.ElemBytes))
			e.LoopBranch(pc+16, col/colStep, coarse/colStep)
		}
		e.LoopBranch(pc+20, row-lo, hi-lo)
	}
}

// TreeChase is the irregular primitive: seeded pointer-chasing
// descents through a tree whose nodes are hash-distributed across all
// homes. Each walk starts at the root and follows Depth seeded child
// links; Store updates the reached node (tree build), Skew models the
// load imbalance of irregular domain decomposition. Walks is the total
// across all threads, divided evenly (before skew).
type TreeChase struct {
	PC     uint32
	Walks  int // total descents across all threads
	Depth  int
	Fanout int
	Nodes  int // tree size; node k lives on node k mod N
	IntOps int
	FPOps  int
	Store  bool
	Skew   int
	Chunk  int    // walks per work item
	Salt   uint64 // phase-instance discriminator for the seeded paths
	// NodeBytes/Base place the node pool on each home.
	NodeBytes uint64
	Base      uint64
}

func (b *TreeChase) Items(c *Ctx, tid int) []BlockItem {
	walks := skewCount(b.Walks/c.N, b.Skew, tid, c.N)
	chunk := b.Chunk
	if chunk < 1 {
		chunk = walks
	}
	var items []BlockItem
	for s := 0; s < walks; s += chunk {
		e := s + chunk
		if e > walks {
			e = walks
		}
		items = append(items, BlockItem{A: tid, B: s, C: e})
	}
	return items
}

func (b *TreeChase) nodeAddr(c *Ctx, node int) uint64 {
	return machine.AddrAt(node%c.N, b.Base+uint64(node)*b.NodeBytes)
}

func (b *TreeChase) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	tid, lo, hi := it.A, it.B, it.C
	pc := b.PC
	fan := b.Fanout
	if fan < 2 {
		fan = 2
	}
	for w := lo; w < hi; w++ {
		node := 0
		for lvl := 0; lvl < b.Depth; lvl++ {
			e.Load(pc+0, b.nodeAddr(c, node))
			if b.IntOps > 0 {
				e.Int(pc+4, b.IntOps)
			}
			if b.FPOps > 0 {
				e.FP(pc+8, b.FPOps)
			}
			choice := rng.Hash64(c.Seed ^ b.Salt ^ uint64(tid)<<40 ^ uint64(w)<<8 ^ uint64(lvl))
			node = (node*fan + 1 + int(choice%uint64(fan))) % b.Nodes
			e.LoopBranch(pc+12, lvl, b.Depth)
		}
		if b.Store {
			e.Store(pc+16, b.nodeAddr(c, node))
		}
		e.LoopBranch(pc+20, w-lo, hi-lo)
	}
}

// Broadcast is the all-to-all read primitive: each thread reads Elems
// elements from every peer's window of the region (n-body force
// evaluation against remotely-owned positions). One item per peer, so
// peers interleave with other threads' progress.
type Broadcast struct {
	PC          uint32
	Elems       int // elements read per peer
	IntOps      int
	FPOps       int
	IncludeSelf bool
	Region      Region // peer q's window = Region.addr(q, e)
}

func (b *Broadcast) Items(c *Ctx, tid int) []BlockItem {
	var items []BlockItem
	for q := 0; q < c.N; q++ {
		if q == tid && !b.IncludeSelf {
			continue
		}
		items = append(items, BlockItem{A: tid, B: q})
	}
	return items
}

func (b *Broadcast) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	peer := it.B
	for i := 0; i < b.Elems; i++ {
		pc := b.PC
		e.Load(pc, b.Region.addr(c, peer, i))
		pc += 4
		if b.IntOps > 0 {
			e.Int(pc, b.IntOps)
			pc += 4
		}
		if b.FPOps > 0 {
			e.FP(pc, b.FPOps)
			pc += 4
		}
		e.LoopBranch(pc, i, b.Elems)
	}
}

// Random is the seeded uniform-access primitive: Count accesses spread
// over a Span-element region, every StoreEvery-th access a store. With
// Spread set the accesses scatter across all homes (the pathological
// placement); otherwise they stay within Region.
type Random struct {
	PC         uint32
	Count      int
	Span       int // elements in the target region
	StoreEvery int // every k-th access is a store (0 = loads only)
	IntOps     int
	FPOps      int
	Spread     bool // scatter across all homes instead of Region.Home
	Skew       int
	Salt       uint64
	Region     Region
}

func (b *Random) Items(c *Ctx, tid int) []BlockItem {
	return []BlockItem{{A: tid}}
}

func (b *Random) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	tid := it.A
	n := skewCount(b.Count, b.Skew, tid, c.N)
	span := b.Span
	if span < 1 {
		span = 1
	}
	for i := 0; i < n; i++ {
		h := rng.Hash64(c.Seed ^ b.Salt ^ uint64(tid)<<32 ^ uint64(i))
		elem := int(h % uint64(span))
		var a uint64
		if b.Spread {
			home := int(h>>40) % c.N
			a = machine.AddrAt(home, b.Region.Base+uint64(elem)*b.Region.ElemBytes)
		} else {
			a = b.Region.addr(c, tid, elem)
		}
		pc := b.PC
		if b.StoreEvery > 0 && i%b.StoreEvery == b.StoreEvery-1 {
			e.Store(pc, a)
		} else {
			e.Load(pc, a)
		}
		pc += 4
		if b.IntOps > 0 {
			e.Int(pc, b.IntOps)
			pc += 4
		}
		if b.FPOps > 0 {
			e.FP(pc, b.FPOps)
			pc += 4
		}
		e.LoopBranch(pc, i, n)
	}
}

// Replay is the trace-ingestion primitive: verbatim re-emission of one
// barrier-delimited segment of an externally captured per-processor
// instruction stream. Trace processor tp is assigned to thread
// tp mod N, and memory homes are remapped mod N so a P-processor trace
// replays on any machine size.
type Replay struct {
	// Streams holds one instruction slice per trace processor for this
	// segment.
	Streams [][]isa.Inst
	// Chunk bounds instructions per work item (0 = a default of 4096).
	Chunk int
}

func (b *Replay) Items(c *Ctx, tid int) []BlockItem {
	chunk := b.Chunk
	if chunk < 1 {
		chunk = 4096
	}
	var items []BlockItem
	for tp := tid; tp < len(b.Streams); tp += c.N {
		for s := 0; s < len(b.Streams[tp]); s += chunk {
			e := s + chunk
			if e > len(b.Streams[tp]) {
				e = len(b.Streams[tp])
			}
			items = append(items, BlockItem{A: tp, B: s, C: e})
		}
	}
	return items
}

func (b *Replay) Emit(c *Ctx, e *isa.Emitter, it BlockItem) {
	for _, in := range b.Streams[it.A][it.B:it.C] {
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			home := int(in.Addr >> machine.HomeShift)
			in.Addr = machine.AddrAt(home%c.N, in.Addr&(1<<machine.HomeShift-1))
		}
		e.Append(in)
	}
}
