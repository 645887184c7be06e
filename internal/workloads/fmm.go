package workloads

import (
	"fmt"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
)

// FMM models SPLASH-2 FMM: an adaptive fast multipole N-body method
// (Table II: 65,536 particles). The synthetic kernel uses a uniform cell
// grid with contiguous spatial partitioning. Each timestep runs four
// bulk-synchronous phases — tree construction, upward (multipole)
// pass, cell-cell interactions, and downward/position update — with the
// interaction window alternating between near (3×3) and wide (5×5)
// every other timestep, mimicking the tree adaptivity that makes FMM's
// phase behaviour time-varying.
//
// Phase-detection relevance: tree build and update are integer/FP local
// phases, the interaction phase reads neighbour and far-field cell
// multipoles owned by other processors (remote, contended), so identical
// code signatures carry very different data-distribution costs at the
// partition boundary versus the interior.
type FMM struct{}

func init() { Register(FMM{}) }

// Name implements Workload.
func (FMM) Name() string { return "fmm" }

// Description implements Workload.
func (FMM) Description() string {
	return "SPLASH-2 fast multipole N-body (tree build / upward / interact / downward timesteps)"
}

type fmmParams struct {
	Particles int
	GridSide  int // cells per axis
	Steps     int
	FarSample int // far-field cells sampled per cell
}

func (FMM) params(sz Size) fmmParams {
	switch sz {
	case SizeTest:
		return fmmParams{Particles: 8192, GridSide: 8, Steps: 3, FarSample: 2}
	case SizeSmall:
		return fmmParams{Particles: 65536, GridSide: 16, Steps: 5, FarSample: 4}
	default:
		return fmmParams{Particles: 65536, GridSide: 32, Steps: 4, FarSample: 4} // paper scale
	}
}

// InputSet implements Workload.
func (w FMM) InputSet(sz Size) string {
	p := w.params(sz)
	return fmt.Sprintf("%d particles", p.Particles)
}

const pcFMM = 0x2000_0000

const (
	fmmMultipoleBytes = 256 // per-cell multipole expansion
	fmmParticleBytes  = 32  // per-particle record (one line)
)

type fmmRun struct {
	n     int
	p     fmmParams
	cells int
	ppc   int // particles per cell
	seed  uint64
}

// cellOwner partitions cells contiguously (row-major spatial blocks).
func (r *fmmRun) cellOwner(c int) int {
	return c * r.n / r.cells
}

// multAddr is the base address of cell c's multipole expansion.
func (r *fmmRun) multAddr(c int) uint64 {
	return machine.AddrAt(r.cellOwner(c), uint64(c)*fmmMultipoleBytes)
}

// partAddr is the address of particle idx of cell c.
func (r *fmmRun) partAddr(c, idx int) uint64 {
	const partRegion = 1 << 28 // keep particle arrays clear of multipoles
	return machine.AddrAt(r.cellOwner(c), partRegion+uint64(c*r.ppc+idx)*fmmParticleBytes)
}

// Threads implements Workload. Each timestep is four barrier-closed
// phases — build, upward, interact, downward — each a kernel with one
// item per cell the thread owns.
func (w FMM) Threads(n int, sz Size, seed uint64) []isa.Thread {
	p := w.params(sz)
	cells := p.GridSide * p.GridSide
	r := &fmmRun{n: n, p: p, cells: cells, ppc: p.Particles / cells, seed: seed}
	owned := func(tid int) []BlockItem {
		var items []BlockItem
		for c := 0; c < cells; c++ {
			if r.cellOwner(c) == tid {
				items = append(items, BlockItem{A: c})
			}
		}
		return items
	}
	phase := func(render func(e *isa.Emitter, it BlockItem)) Phase {
		return Phase{Blocks: []Block{&kernel{List: owned, Render: render}}}
	}
	build := phase(func(e *isa.Emitter, it BlockItem) { r.emitBuild(e, it.A) })
	upward := phase(func(e *isa.Emitter, it BlockItem) { r.emitUpward(e, it.A) })
	downward := phase(func(e *isa.Emitter, it BlockItem) { r.emitDownward(e, it.A) })
	prog := &Program{BarrierPC: pcFMM + 0xF00}
	for ts := 0; ts < p.Steps; ts++ {
		interact := phase(func(e *isa.Emitter, it BlockItem) { r.emitInteract(e, it.A, ts) })
		prog.Phases = append(prog.Phases, build, upward, interact, downward)
	}
	return prog.Threads(n, seed)
}

// emitBuild: integer-heavy local scan assigning particles to the cell.
func (r *fmmRun) emitBuild(e *isa.Emitter, c int) {
	const pc = pcFMM + 0x000
	for i := 0; i < r.ppc; i++ {
		e.Load(pc+0, r.partAddr(c, i))
		e.Int(pc+4, 3)
		// Occasional mispredictable branch: particle on a cell boundary.
		e.Branch(pc+8, rng.Hash64(uint64(c*r.ppc+i))%8 == 0)
		e.LoopBranch(pc+12, i, r.ppc)
	}
}

// emitUpward: FP-heavy multipole accumulation over local particles.
func (r *fmmRun) emitUpward(e *isa.Emitter, c int) {
	const pc = pcFMM + 0x100
	for i := 0; i < r.ppc; i++ {
		e.Load(pc+0, r.partAddr(c, i))
		e.FP(pc+4, 3)
		e.LoopBranch(pc+8, i, r.ppc)
	}
	for l := 0; l < fmmMultipoleBytes/32; l++ {
		e.Store(pc+12, r.multAddr(c)+uint64(l)*32)
	}
}

// emitInteract: reads neighbour multipoles within the timestep's window
// plus a deterministic far-field sample; the heaviest and most remote
// phase.
func (r *fmmRun) emitInteract(e *isa.Emitter, c, ts int) {
	const pc = pcFMM + 0x200
	side := r.p.GridSide
	cx, cy := c%side, c/side
	window := 1 // 3×3
	if ts%2 == 1 {
		window = 2 // 5×5 on odd timesteps (deeper tree opening)
	}
	read := func(oc int) {
		base := r.multAddr(oc)
		for l := 0; l < fmmMultipoleBytes/32; l++ {
			e.Load(pc+0, base+uint64(l)*32)
			e.FP(pc+4, 2)
			e.LoopBranch(pc+8, l, fmmMultipoleBytes/32)
		}
	}
	for dy := -window; dy <= window; dy++ {
		for dx := -window; dx <= window; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= side || ny >= side {
				continue
			}
			read(ny*side + nx)
		}
	}
	// Far-field sample: deterministic pseudo-random distant cells.
	for s := 0; s < r.p.FarSample; s++ {
		h := rng.Hash64(r.seed ^ uint64(c)<<20 ^ uint64(ts)<<8 ^ uint64(s))
		read(int(h % uint64(r.cells)))
	}
}

// emitDownward: local force application and position update.
func (r *fmmRun) emitDownward(e *isa.Emitter, c int) {
	const pc = pcFMM + 0x300
	for i := 0; i < r.ppc; i++ {
		e.Load(pc+0, r.partAddr(c, i))
		e.Load(pc+4, r.multAddr(c))
		e.FP(pc+8, 4)
		e.Store(pc+12, r.partAddr(c, i))
		e.LoopBranch(pc+16, i, r.ppc)
	}
}
