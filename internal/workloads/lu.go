package workloads

import (
	"fmt"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
)

// LU models SPLASH-2 LU: blocked dense LU factorization of an N×N matrix
// with B×B blocks (Table II: 512×512, 16×16). Blocks are 2-D scattered
// across processors; each step k factors the diagonal block, solves the
// perimeter row/column against it, then updates the trailing submatrix,
// with barriers between the three sub-phases.
//
// Phase-detection relevance: the three kernels have distinct basic-block
// signatures, while the *data distribution* of the update kernel shifts
// every step (its sources live in row/column k, whose owners rotate), so
// intervals with near-identical BBVs differ in DDS — the paper's central
// scenario. The shrinking trailing matrix also shrinks per-step work,
// increasing barrier-wait share over time.
type LU struct{}

func init() { Register(LU{}) }

// Name implements Workload.
func (LU) Name() string { return "lu" }

// Description implements Workload.
func (LU) Description() string {
	return "SPLASH-2 blocked dense LU factorization (factor/solve/update pipeline, 2-D block scatter)"
}

type luParams struct {
	N, B int
}

func (LU) params(sz Size) luParams {
	switch sz {
	case SizeTest:
		return luParams{N: 128, B: 8}
	case SizeSmall:
		return luParams{N: 256, B: 16}
	default:
		return luParams{N: 512, B: 16} // the paper's input
	}
}

// InputSet implements Workload.
func (w LU) InputSet(sz Size) string {
	p := w.params(sz)
	return fmt.Sprintf("%d×%d matrix, %d×%d block", p.N, p.N, p.B, p.B)
}

// LU static PC space.
const pcLU = 0x1000_0000

type luRun struct {
	n, G, B int
	pr, pc  int
	depth   int
}

// owner returns the 2-D scatter owner of block (bi, bj).
func (r *luRun) owner(bi, bj int) int {
	return (bi%r.pr)*r.pc + (bj % r.pc)
}

// blockAddr returns the base byte address of block (bi, bj), homed at its
// owner's node.
func (r *luRun) blockAddr(bi, bj int) uint64 {
	bid := uint64(bi*r.G + bj)
	blockBytes := uint64(r.B * r.B * 8)
	return machine.AddrAt(r.owner(bi, bj), bid*blockBytes)
}

// off returns the byte offset of element (i, j) within a block.
func (r *luRun) off(i, j int) uint64 {
	return uint64(i*r.B+j) * 8
}

// procGrid factors n into pr×pc with pr >= pc, both powers of two.
func procGrid(n int) (pr, pc int) {
	pr, pc = 1, 1
	for pr*pc < n {
		if pr <= pc {
			pr *= 2
		} else {
			pc *= 2
		}
	}
	return pr, pc
}

// Threads implements Workload. The three kernels of factorization
// step k become three barrier-closed phases. Ownership is irregular —
// a matrix block's work runs only on its owner — so each phase is a
// kernel whose items are the owner's kernel invocations, exactly the
// batch structure the pre-IR emitter produced (pinned by
// TestIRStreamEquivalenceLURadix).
func (w LU) Threads(n int, sz Size, seed uint64) []isa.Thread {
	p := w.params(sz)
	G := p.N / p.B
	pr, pc := procGrid(n)
	r := &luRun{n: n, G: G, B: p.B, pr: pr, pc: pc, depth: max(2, p.B/4)}
	prog := &Program{BarrierPC: pcLU + 0xF00}
	for k := 0; k < G; k++ {
		// The diagonal block's factorization, on its owner only.
		fact := &kernel{
			List: func(tid int) []BlockItem {
				if r.owner(k, k) == tid {
					return []BlockItem{{}}
				}
				return nil
			},
			Render: func(e *isa.Emitter, _ BlockItem) { r.emitFact(e, k) },
		}
		// The perimeter solve: each owned row block (C=0), then each
		// owned column block (C=1), in block order.
		solve := &kernel{
			List: func(tid int) []BlockItem {
				var items []BlockItem
				for j := k + 1; j < G; j++ {
					if r.owner(k, j) == tid {
						items = append(items, BlockItem{B: j})
					}
				}
				for i := k + 1; i < G; i++ {
					if r.owner(i, k) == tid {
						items = append(items, BlockItem{B: i, C: 1})
					}
				}
				return items
			},
			Render: func(e *isa.Emitter, it BlockItem) {
				if it.C == 0 {
					r.emitSolve(e, k, k, it.B, pcLU+0x100)
				} else {
					r.emitSolve(e, k, it.B, k, pcLU+0x200)
				}
			},
		}
		// The trailing-submatrix update: each owned trailing block.
		update := &kernel{
			List: func(tid int) []BlockItem {
				var items []BlockItem
				for i := k + 1; i < G; i++ {
					for j := k + 1; j < G; j++ {
						if r.owner(i, j) == tid {
							items = append(items, BlockItem{A: i, B: j})
						}
					}
				}
				return items
			},
			Render: func(e *isa.Emitter, it BlockItem) { r.emitUpdate(e, it.A, it.B, k) },
		}
		prog.Phases = append(prog.Phases,
			Phase{Blocks: []Block{fact}},
			Phase{Blocks: []Block{solve}},
			Phase{Blocks: []Block{update}},
		)
	}
	return prog.Threads(n, seed)
}

// emitFact models the diagonal-block factorization: column sweeps over
// the owner's own block (all-local accesses, FP-heavy, short loops).
func (r *luRun) emitFact(e *isa.Emitter, k int) {
	const pc = pcLU + 0x000
	blk := r.blockAddr(k, k)
	for j := 0; j < r.B; j++ {
		for i := j; i < r.B; i++ {
			e.Load(pc+0, blk+r.off(i, j))
			e.Load(pc+4, blk+r.off(j, j))
			e.FP(pc+8, 2)
			e.Store(pc+12, blk+r.off(i, j))
			e.LoopBranch(pc+16, i-j, r.B-j)
		}
		e.LoopBranch(pc+20, j, r.B)
	}
}

// emitSolve models a perimeter triangular solve: the target block is
// updated against the (possibly remote) diagonal block.
func (r *luRun) emitSolve(e *isa.Emitter, k, bi, bj int, pc uint32) {
	diag := r.blockAddr(k, k)
	tgt := r.blockAddr(bi, bj)
	for j := 0; j < r.B; j++ {
		for i := 0; i < r.B; i++ {
			e.Load(pc+0, diag+r.off(j, j))
			e.Load(pc+4, tgt+r.off(i, j))
			e.FP(pc+8, 2)
			e.Store(pc+12, tgt+r.off(i, j))
			e.LoopBranch(pc+16, i, r.B)
		}
		e.LoopBranch(pc+20, j, r.B)
	}
}

// emitUpdate models the trailing-submatrix update
// A[i][j] -= A[i][k] · A[k][j]: the two source blocks live in row/column
// k (typically remote), the target is local to the owner. The inner dot
// product is depth-sampled to keep per-block instruction counts at
// B²·depth scale while preserving the B³ work ratio between sizes.
func (r *luRun) emitUpdate(e *isa.Emitter, i, j, k int) {
	const pc = pcLU + 0x300
	a := r.blockAddr(i, k)
	b := r.blockAddr(k, j)
	tgt := r.blockAddr(i, j)
	for jj := 0; jj < r.B; jj++ {
		for ii := 0; ii < r.B; ii++ {
			for kk := 0; kk < r.depth; kk++ {
				e.Load(pc+0, a+r.off(ii, kk*r.B/r.depth))
				e.Load(pc+4, b+r.off(kk*r.B/r.depth, jj))
				e.FP(pc+8, 2)
				e.LoopBranch(pc+12, kk, r.depth)
			}
			e.Load(pc+16, tgt+r.off(ii, jj))
			e.FP(pc+20, 1)
			e.Store(pc+24, tgt+r.off(ii, jj))
			e.LoopBranch(pc+28, ii, r.B)
		}
		e.LoopBranch(pc+32, jj, r.B)
	}
}
