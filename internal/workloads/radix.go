package workloads

import (
	"fmt"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
)

// Radix models SPLASH-2 Radix sort (extension beyond the paper's
// Table II): an iterative radix sort whose passes alternate a local
// histogram phase, a global prefix-sum phase (every processor reads
// every other processor's histogram), and a permutation phase that
// scatters keys to their destination processors — the most aggressive
// all-to-all write traffic of any workload here.
//
// Phase-detection relevance: the three kernels share little code, but
// the permutation's *destination distribution* changes every pass as
// the keys get sorted (early passes scatter uniformly, later passes
// concentrate on nearby processors), so the same permute code shows a
// drifting DDS across passes — another instance of the paper's
// same-code/different-distribution scenario.
type Radix struct{}

func init() { Register(Radix{}) }

// Name implements Workload.
func (Radix) Name() string { return "radix" }

// Description implements Workload.
func (Radix) Description() string {
	return "SPLASH-2 Radix sort extension (histogram / global scan / all-to-all permutation passes)"
}

type radixParams struct {
	Keys   int
	Passes int
	Radix  int
}

func (Radix) params(sz Size) radixParams {
	switch sz {
	case SizeTest:
		return radixParams{Keys: 1 << 16, Passes: 2, Radix: 256}
	case SizeSmall:
		return radixParams{Keys: 1 << 18, Passes: 3, Radix: 256}
	default:
		return radixParams{Keys: 1 << 20, Passes: 4, Radix: 256}
	}
}

// InputSet implements Workload.
func (w Radix) InputSet(sz Size) string {
	p := w.params(sz)
	return fmt.Sprintf("%d keys, radix %d, %d passes", p.Keys, p.Radix, p.Passes)
}

const pcRadix = 0x6000_0000

// radixChunk is the number of keys per work item.
const radixChunk = 512

type radixRun struct {
	n       int
	p       radixParams
	seed    uint64
	perProc int // keys per processor
}

// keyAddr is the address of key index k in processor owner's key region.
func (r *radixRun) keyAddr(owner int, k int) uint64 {
	return machine.AddrAt(owner, uint64(k)*8)
}

// histAddr is processor owner's histogram bucket b.
func (r *radixRun) histAddr(owner, b int) uint64 {
	return machine.AddrAt(owner, 1<<28|uint64(b)*8)
}

// destOwner returns the destination processor of key k in pass: early
// passes scatter near-uniformly; later passes concentrate around the
// key's final sorted position (its owner's neighbourhood).
func (r *radixRun) destOwner(tid, k, pass int) int {
	h := rng.Hash64(r.seed ^ uint64(tid)<<40 ^ uint64(k)<<8 ^ uint64(pass))
	spread := r.n >> uint(pass) // halves each pass
	if spread < 1 {
		spread = 1
	}
	return (tid + int(h%uint64(spread))) % r.n
}

// chunks lists [lo, hi) key chunks of thread tid's partition.
func (r *radixRun) chunks(tid int) []BlockItem {
	var items []BlockItem
	for s := 0; s < r.perProc; s += radixChunk {
		items = append(items, BlockItem{A: tid, B: s, C: min(s+radixChunk, r.perProc)})
	}
	return items
}

// Threads implements Workload. Each pass is three barrier-closed
// phases — histogram, global scan, permutation — with one item per
// radixChunk of keys (histogram, permutation) or per thread (scan),
// exactly the batch structure the pre-IR emitter produced (pinned by
// TestIRStreamEquivalenceLURadix). The histogram and scan kernels carry
// no per-pass state, so one instance serves every pass; the permute
// kernel is per pass because the destination spread shrinks with it.
func (w Radix) Threads(n int, sz Size, seed uint64) []isa.Thread {
	p := w.params(sz)
	r := &radixRun{n: n, p: p, seed: seed, perProc: p.Keys / n}
	prog := &Program{BarrierPC: pcRadix + 0xF00}
	hist := &kernel{
		List:   r.chunks,
		Render: func(e *isa.Emitter, it BlockItem) { r.emitHist(e, it.A, it.B, it.C) },
	}
	scan := &kernel{
		List:   func(tid int) []BlockItem { return []BlockItem{{A: tid}} },
		Render: func(e *isa.Emitter, it BlockItem) { r.emitScan(e, it.A) },
	}
	for pass := 0; pass < p.Passes; pass++ {
		permute := &kernel{
			List:   r.chunks,
			Render: func(e *isa.Emitter, it BlockItem) { r.emitPermute(e, it.A, it.B, it.C, pass) },
		}
		prog.Phases = append(prog.Phases,
			Phase{Blocks: []Block{hist}},
			Phase{Blocks: []Block{scan}},
			Phase{Blocks: []Block{permute}},
		)
	}
	return prog.Threads(n, seed)
}

// emitHist: local histogram of the chunk's key digits.
func (r *radixRun) emitHist(e *isa.Emitter, tid, lo, hi int) {
	const pc = pcRadix + 0x000
	for k := lo; k < hi; k++ {
		e.Load(pc+0, r.keyAddr(tid, k))
		e.Int(pc+4, 2) // digit extraction
		e.Store(pc+8, r.histAddr(tid, k%r.p.Radix))
		e.LoopBranch(pc+12, k-lo, hi-lo)
	}
}

// emitScan: global prefix sum — read every processor's histogram,
// sampled by bucket stride to bound instruction counts.
func (r *radixRun) emitScan(e *isa.Emitter, tid int) {
	const pc = pcRadix + 0x100
	stride := 16
	for q := 0; q < r.n; q++ {
		for b := 0; b < r.p.Radix; b += stride {
			e.Load(pc+0, r.histAddr(q, b))
			e.Int(pc+4, 1)
			e.LoopBranch(pc+8, b/stride, r.p.Radix/stride)
		}
		e.LoopBranch(pc+12, q, r.n)
	}
	// Store the scanned offsets locally.
	for b := 0; b < r.p.Radix; b += stride {
		e.Store(pc+16, r.histAddr(tid, b))
		e.LoopBranch(pc+20, b/stride, r.p.Radix/stride)
	}
}

// emitPermute: scatter each key to its destination processor's region —
// the all-to-all phase whose destination spread shrinks every pass.
func (r *radixRun) emitPermute(e *isa.Emitter, tid, lo, hi, pass int) {
	const pc = pcRadix + 0x200
	for k := lo; k < hi; k++ {
		e.Load(pc+0, r.keyAddr(tid, k))
		e.Int(pc+4, 2)
		dst := r.destOwner(tid, k, pass)
		e.Store(pc+8, r.keyAddr(dst, k)+1<<27) // destination buffer region
		e.LoopBranch(pc+12, k-lo, hi-lo)
	}
}
