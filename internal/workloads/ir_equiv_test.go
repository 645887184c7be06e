package workloads

// Stream-equality pins for the IR migration: fsstencil, pagethrash and
// ocean were hand-written emitters before the phased access-pattern IR
// existed; their pre-refactor implementations are preserved verbatim
// below (legacy* prefix) and every migrated generator is required to
// produce a byte-identical per-batch instruction stream. Batch
// boundaries matter, not just the concatenated stream: the scheduler
// interleaves threads at batch granularity, so a migration that merely
// concatenated identically could still change simulation results.

import (
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
)

// --- pre-IR script thread, verbatim ---------------------------------------

// The legacy generators below build their threads the pre-IR way: a
// per-thread list of kind-tagged items, dispatched through one emit
// switch per workload.

// item is one unit of scripted work: either a barrier or a workload-
// specific kernel invocation identified by kind with up to four integer
// arguments.
type item struct {
	kind       int
	a, b, c, d int
}

// kindBarrier marks a barrier arrival.
const kindBarrier = -1

// scriptThread executes a precomputed list of work items, one item per
// batch. Emission is delegated to the owning workload's kernel emitter.
type scriptThread struct {
	items []item
	pos   int
	emit  func(it item, e *isa.Emitter)
	// barrierPC is the static PC of the barrier arrival instruction.
	barrierPC uint32
}

func (t *scriptThread) NextBatch(e *isa.Emitter) bool {
	if t.pos >= len(t.items) {
		return false
	}
	it := t.items[t.pos]
	t.pos++
	if it.kind == kindBarrier {
		e.Sync(t.barrierPC)
		return true
	}
	t.emit(it, e)
	return true
}

// --- legacy fsstencil (pre-IR), verbatim -----------------------------------

const (
	legacyFSCompute = iota
	legacyFSCommunicate
)

type legacyFSRun struct {
	n int
	p fsstencilParams
}

func (r *legacyFSRun) sharedWordAddr(tid int) uint64 {
	line := uint64(tid / fsWordsPerLine)
	word := uint64(tid % fsWordsPerLine)
	return machine.AddrAt(0, line*32+word*8)
}

func (r *legacyFSRun) privAddr(tid, i int) uint64 {
	return machine.AddrAt(tid, 1<<24|uint64(i)*8)
}

func (r *legacyFSRun) lineMates(tid int) []int {
	base := tid / fsWordsPerLine * fsWordsPerLine
	var out []int
	for q := base; q < base+fsWordsPerLine && q < r.n; q++ {
		if q != tid {
			out = append(out, q)
		}
	}
	return out
}

func legacyFSThreads(n int, sz Size) []isa.Thread {
	p := FSStencil{}.params(sz)
	run := &legacyFSRun{n: n, p: p}
	out := make([]isa.Thread, n)
	for tid := 0; tid < n; tid++ {
		var items []item
		for it := 0; it < p.Iters; it++ {
			items = append(items, item{kind: legacyFSCompute, a: tid, b: it})
			items = append(items, item{kind: kindBarrier})
			items = append(items, item{kind: legacyFSCommunicate, a: tid})
			items = append(items, item{kind: kindBarrier})
		}
		out[tid] = &scriptThread{items: items, emit: run.emit, barrierPC: pcFSStencil + 0xF00}
	}
	return out
}

func (r *legacyFSRun) emit(it item, e *isa.Emitter) {
	switch it.kind {
	case legacyFSCompute:
		const pc = pcFSStencil + 0x000
		for i := 0; i < r.p.Compute; i++ {
			e.Load(pc+0, r.privAddr(it.a, (i+it.b)%1024))
			e.Int(pc+4, 2)
			e.Store(pc+8, r.privAddr(it.a, (i+it.b)%1024))
			e.LoopBranch(pc+12, i, r.p.Compute)
		}
	case legacyFSCommunicate:
		const pc = pcFSStencil + 0x100
		mates := r.lineMates(it.a)
		for u := 0; u < r.p.Updates; u++ {
			e.Store(pc+0, r.sharedWordAddr(it.a))
			e.Int(pc+4, 1)
			for j, q := range mates {
				e.Load(pc+8+uint32(j)*4, r.sharedWordAddr(q))
			}
			e.LoopBranch(pc+24, u, r.p.Updates)
		}
	}
}

// --- legacy pagethrash (pre-IR), verbatim ----------------------------------

const (
	legacyPTCompute = iota
	legacyPTShared
)

type legacyPTRun struct {
	n int
	p pagethrashParams
}

func (r *legacyPTRun) sharedLineAddr(tid int) uint64 {
	return machine.AddrAt(0, uint64(tid)*32%ptPageBytes)
}

func (r *legacyPTRun) privAddr(tid, i int) uint64 {
	return machine.AddrAt(tid, 1<<24|uint64(i)*8)
}

func legacyPTThreads(n int, sz Size) []isa.Thread {
	p := PageThrash{}.params(sz)
	run := &legacyPTRun{n: n, p: p}
	out := make([]isa.Thread, n)
	for tid := 0; tid < n; tid++ {
		var items []item
		for it := 0; it < p.Iters; it++ {
			items = append(items, item{kind: legacyPTCompute, a: tid, b: it})
			items = append(items, item{kind: kindBarrier})
			items = append(items, item{kind: legacyPTShared, a: tid})
			items = append(items, item{kind: kindBarrier})
		}
		out[tid] = &scriptThread{items: items, emit: run.emit, barrierPC: pcPageThrash + 0xF00}
	}
	return out
}

func (r *legacyPTRun) emit(it item, e *isa.Emitter) {
	switch it.kind {
	case legacyPTCompute:
		const pc = pcPageThrash + 0x000
		for i := 0; i < r.p.Compute; i++ {
			e.Load(pc+0, r.privAddr(it.a, (i+it.b)%1024))
			e.Int(pc+4, 2)
			e.Store(pc+8, r.privAddr(it.a, (i+it.b)%1024))
			e.LoopBranch(pc+12, i, r.p.Compute)
		}
	case legacyPTShared:
		const pc = pcPageThrash + 0x100
		for u := 0; u < r.p.Writes; u++ {
			e.Load(pc+0, r.sharedLineAddr(it.a))
			e.Int(pc+4, 1)
			e.Store(pc+8, r.sharedLineAddr(it.a))
			e.LoopBranch(pc+12, u, r.p.Writes)
		}
	}
}

// --- legacy ocean (pre-IR), verbatim ---------------------------------------

const (
	legacyOceanRelax = iota
	legacyOceanReduce
	legacyOceanRestrict
)

type legacyOceanRun struct {
	n int
	p oceanParams
}

func (r *legacyOceanRun) rowOwner(row, grid int) int {
	return row * r.n / grid
}

func (r *legacyOceanRun) cellAddr(row, col, grid, level int) uint64 {
	base := uint64(level) << 27
	return machine.AddrAt(r.rowOwner(row, grid), base+uint64(row*grid+col)*8)
}

func (r *legacyOceanRun) accumAddr() uint64 {
	return machine.AddrAt(0, 1<<30)
}

func legacyOceanThreads(n int, sz Size) []isa.Thread {
	p := Ocean{}.params(sz)
	run := &legacyOceanRun{n: n, p: p}
	out := make([]isa.Thread, n)
	for tid := 0; tid < n; tid++ {
		var items []item
		grid := p.Grid
		level := 0
		for ts := 0; ts < p.Steps; ts++ {
			lo := tid * grid / n
			hi := (tid + 1) * grid / n
			for _, colour := range []int{0, 1} {
				for s := lo; s < hi; s += oceanChunk {
					e := s + oceanChunk
					if e > hi {
						e = hi
					}
					items = append(items, item{kind: legacyOceanRelax, a: s, b: e, c: colour | level<<1, d: grid})
				}
				items = append(items, item{kind: kindBarrier})
			}
			items = append(items, item{kind: legacyOceanReduce, a: lo, b: hi, d: grid, c: level})
			items = append(items, item{kind: kindBarrier})
			if ts%3 == 2 && grid > 32 {
				items = append(items, item{kind: legacyOceanRestrict, a: lo / 2, b: hi / 2, c: level, d: grid})
				items = append(items, item{kind: kindBarrier})
				grid = grid / 2
				level++
			} else if level > 0 {
				grid = p.Grid
				level = 0
			}
		}
		out[tid] = &scriptThread{items: items, emit: run.emit, barrierPC: pcOcean + 0xF00}
	}
	return out
}

func (r *legacyOceanRun) emit(it item, e *isa.Emitter) {
	switch it.kind {
	case legacyOceanRelax:
		r.emitRelax(e, it.a, it.b, it.c&1, it.c>>1, it.d)
	case legacyOceanReduce:
		r.emitReduce(e, it.a, it.b, it.c, it.d)
	case legacyOceanRestrict:
		r.emitRestrict(e, it.a, it.b, it.c, it.d)
	}
}

func (r *legacyOceanRun) emitRelax(e *isa.Emitter, lo, hi, colour, level, grid int) {
	pc := uint32(pcOcean + 0x000 + 0x40*colour)
	colStep := 4
	for row := lo; row < hi; row++ {
		start := (row + colour) % 2
		for col := start + 1; col < grid-1; col += colStep {
			e.Load(pc+0, r.cellAddr(row, col, grid, level))
			up := row - 1
			if up < 0 {
				up = 0
			}
			down := row + 1
			if down >= grid {
				down = grid - 1
			}
			e.Load(pc+4, r.cellAddr(up, col, grid, level))
			e.Load(pc+8, r.cellAddr(down, col, grid, level))
			e.FP(pc+12, 3)
			e.Store(pc+16, r.cellAddr(row, col, grid, level))
			e.LoopBranch(pc+20, col/colStep, (grid-2)/colStep+1)
		}
		e.LoopBranch(pc+24, row-lo, hi-lo)
	}
}

func (r *legacyOceanRun) emitReduce(e *isa.Emitter, lo, hi, level, grid int) {
	const pc = pcOcean + 0x100
	for row := lo; row < hi; row++ {
		e.Load(pc+0, r.cellAddr(row, grid/2, grid, level))
		e.FP(pc+4, 1)
		e.LoopBranch(pc+8, row-lo, hi-lo)
	}
	e.Load(pc+12, r.accumAddr())
	e.FP(pc+16, 1)
	e.Store(pc+20, r.accumAddr())
}

func (r *legacyOceanRun) emitRestrict(e *isa.Emitter, lo, hi, level, grid int) {
	const pc = pcOcean + 0x200
	coarse := grid / 2
	for row := lo; row < hi && row < coarse; row++ {
		for col := 0; col < coarse; col += 4 {
			e.Load(pc+0, r.cellAddr(row*2, col*2, grid, level))
			e.Load(pc+4, r.cellAddr(row*2+1, col*2, grid, level))
			e.FP(pc+8, 2)
			e.Store(pc+12, r.cellAddr(row, col, coarse, level+1))
			e.LoopBranch(pc+16, col/4, coarse/4)
		}
		e.LoopBranch(pc+20, row-lo, hi-lo)
	}
}

// --- the equivalence pin ---------------------------------------------------

// drainBatches runs a thread to completion preserving batch boundaries.
func drainBatches(t *testing.T, th isa.Thread) [][]isa.Inst {
	t.Helper()
	var out [][]isa.Inst
	e := isa.NewEmitter(4096)
	total := 0
	for {
		e.Reset()
		if !th.NextBatch(e) {
			return out
		}
		batch := append([]isa.Inst(nil), e.Take()...)
		out = append(out, batch)
		if total += len(batch); total > 100_000_000 {
			t.Fatal("thread exceeded 100M instructions")
		}
	}
}

func assertSameBatches(t *testing.T, name string, n, tid int, legacy, ir [][]isa.Inst) {
	t.Helper()
	if len(legacy) != len(ir) {
		t.Fatalf("%s n=%d tid=%d: %d legacy batches vs %d IR batches", name, n, tid, len(legacy), len(ir))
	}
	for bi := range legacy {
		if len(legacy[bi]) != len(ir[bi]) {
			t.Fatalf("%s n=%d tid=%d batch %d: %d legacy insts vs %d IR insts",
				name, n, tid, bi, len(legacy[bi]), len(ir[bi]))
		}
		for ii := range legacy[bi] {
			if legacy[bi][ii] != ir[bi][ii] {
				t.Fatalf("%s n=%d tid=%d batch %d inst %d: legacy %+v vs IR %+v",
					name, n, tid, bi, ii, legacy[bi][ii], ir[bi][ii])
			}
		}
	}
}

// TestIRStreamEquivalence pins that the IR-migrated generators emit
// byte-identical per-batch streams to their pre-refactor emitters —
// the property that keeps every golden, shard fingerprint and served
// report unchanged across the refactor.
func TestIRStreamEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		legacy func(n int, sz Size) []isa.Thread
		sizes  []Size
	}{
		{"fsstencil", legacyFSThreads, []Size{SizeTest, SizeSmall, SizeFull}},
		{"pagethrash", legacyPTThreads, []Size{SizeTest, SizeSmall, SizeFull}},
		{"ocean", legacyOceanThreads, []Size{SizeTest, SizeSmall}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, err := ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, sz := range tc.sizes {
				ns := []int{1, 2, 3, 4, 8}
				if sz != SizeTest {
					ns = []int{4} // keep larger inputs to one geometry
				}
				for _, n := range ns {
					legacy := tc.legacy(n, sz)
					ir := w.Threads(n, sz, 1)
					for tid := 0; tid < n; tid++ {
						assertSameBatches(t, tc.name, n, tid,
							drainBatches(t, legacy[tid]), drainBatches(t, ir[tid]))
					}
				}
			}
		})
	}
}
