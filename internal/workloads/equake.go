package workloads

import (
	"fmt"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
)

// Equake models SPEC-OMP Equake (earthquake ground-motion simulation,
// MinneSPEC-Large analogue): an unstructured-mesh finite element code
// whose timestep alternates a sparse matrix-vector product over a
// partitioned mesh with dense vector updates, plus a seismic source
// excitation concentrated near the epicenter during early timesteps.
//
// Phase-detection relevance: the SMVP reads neighbour displacement
// values across partition boundaries (remote fraction fixed per node but
// different per processor), the vector phases are purely local, and the
// early-timestep source phase loads only the epicenter's owner — strong
// temporal and spatial imbalance that BBVs alone cannot separate.
type Equake struct{}

func init() { Register(Equake{}) }

// Name implements Workload.
func (Equake) Name() string { return "equake" }

// Description implements Workload.
func (Equake) Description() string {
	return "SPEC-OMP Equake finite-element earthquake simulation (SMVP + vector updates + source excitation)"
}

type equakeParams struct {
	Nodes  int // mesh nodes
	Degree int // neighbours per node
	Steps  int
	// FarPct is the percentage of mesh nodes with one long-range
	// neighbour (unstructured-mesh fill-in).
	FarPct int
}

func (Equake) params(sz Size) equakeParams {
	switch sz {
	case SizeTest:
		return equakeParams{Nodes: 4096, Degree: 6, Steps: 8, FarPct: 6}
	case SizeSmall:
		return equakeParams{Nodes: 16384, Degree: 8, Steps: 12, FarPct: 6}
	default:
		return equakeParams{Nodes: 32768, Degree: 8, Steps: 16, FarPct: 6} // MinneSPEC-Large analogue
	}
}

// InputSet implements Workload.
func (w Equake) InputSet(sz Size) string {
	p := w.params(sz)
	return fmt.Sprintf("MinneSPEC-Large analogue: %d-node mesh, degree %d, %d timesteps", p.Nodes, p.Degree, p.Steps)
}

const pcEquake = 0x4000_0000

// eqChunk is the number of mesh nodes emitted per work item.
const eqChunk = 64

type equakeRun struct {
	n    int
	p    equakeParams
	seed uint64
}

// nodeOwner partitions mesh nodes contiguously.
func (r *equakeRun) nodeOwner(v int) int {
	return v * r.n / r.p.Nodes
}

// xAddr is the displacement entry of mesh node v (one line per node so
// sharing is per-node).
func (r *equakeRun) xAddr(v int) uint64 {
	return machine.AddrAt(r.nodeOwner(v), uint64(v)*32)
}

// kAddr is the local stiffness-row entry for (v, slot).
func (r *equakeRun) kAddr(v, slot int) uint64 {
	const kRegion = 1 << 28
	return machine.AddrAt(r.nodeOwner(v), kRegion+uint64(v*r.p.Degree+slot)*8)
}

// yAddr is the local result entry for node v.
func (r *equakeRun) yAddr(v int) uint64 {
	const yRegion = 1 << 29
	return machine.AddrAt(r.nodeOwner(v), yRegion+uint64(v)*32)
}

// neighbour returns mesh node v's slot-th neighbour: near-diagonal mesh
// edges plus an occasional deterministic long-range edge.
func (r *equakeRun) neighbour(v, slot int) int {
	if slot == r.p.Degree-1 && int(rng.Hash64(r.seed^uint64(v))%100) < r.p.FarPct {
		return int(rng.Hash64(uint64(v)<<8) % uint64(r.p.Nodes))
	}
	offs := []int{-3, -2, -1, 1, 2, 3, -17, 17}
	u := v + offs[slot%len(offs)]
	if u < 0 {
		u += r.p.Nodes
	}
	if u >= r.p.Nodes {
		u -= r.p.Nodes
	}
	return u
}

// epicenterSpan is the excitation region: the first 1/32nd of the
// mesh.
func (r *equakeRun) epicenterSpan() (lo, hi int) {
	return 0, max(1, r.p.Nodes/32)
}

// Threads implements Workload. Each timestep is an SMVP phase and a
// vector-update phase over the thread's owned mesh chunks; the first
// quarter of the timesteps adds a source phase over the chunks of the
// epicenter it owns.
func (w Equake) Threads(n int, sz Size, seed uint64) []isa.Thread {
	p := w.params(sz)
	r := &equakeRun{n: n, p: p, seed: seed}
	chunks := func(lo, hi int) []BlockItem {
		var items []BlockItem
		for s := lo; s < hi; s += eqChunk {
			items = append(items, BlockItem{A: s, B: min(s+eqChunk, hi)})
		}
		return items
	}
	owned := func(tid int) []BlockItem {
		return chunks(tid*p.Nodes/n, (tid+1)*p.Nodes/n)
	}
	smvp := &kernel{List: owned, Render: func(e *isa.Emitter, it BlockItem) { r.emitSmvp(e, it.A, it.B) }}
	vector0 := &kernel{List: owned, Render: func(e *isa.Emitter, it BlockItem) { r.emitVector(e, it.A, it.B, 0) }}
	vector1 := &kernel{List: owned, Render: func(e *isa.Emitter, it BlockItem) { r.emitVector(e, it.A, it.B, 1) }}
	// Source excitation: only owners of the epicenter region do work
	// here; everyone else waits at the barrier.
	elo, ehi := r.epicenterSpan()
	source := &kernel{
		List: func(tid int) []BlockItem {
			return chunks(max(tid*p.Nodes/n, elo), min((tid+1)*p.Nodes/n, ehi))
		},
		Render: func(e *isa.Emitter, it BlockItem) { r.emitSource(e, it.A, it.B) },
	}
	prog := &Program{BarrierPC: pcEquake + 0xF00}
	for ts := 0; ts < p.Steps; ts++ {
		prog.Phases = append(prog.Phases,
			Phase{Blocks: []Block{smvp}},
			Phase{Blocks: []Block{vector0, vector1}},
		)
		if ts < p.Steps/4 {
			prog.Phases = append(prog.Phases, Phase{Blocks: []Block{source}})
		}
	}
	return prog.Threads(n, seed)
}

// emitSmvp: y[v] = Σ K[v][s] · x[neighbour(v,s)] over the chunk.
func (r *equakeRun) emitSmvp(e *isa.Emitter, lo, hi int) {
	const pc = pcEquake + 0x000
	for v := lo; v < hi; v++ {
		for s := 0; s < r.p.Degree; s++ {
			e.Load(pc+0, r.kAddr(v, s))
			e.Load(pc+4, r.xAddr(r.neighbour(v, s)))
			e.FP(pc+8, 2)
			e.LoopBranch(pc+12, s, r.p.Degree)
		}
		e.Store(pc+16, r.yAddr(v))
		e.LoopBranch(pc+20, v-lo, hi-lo)
	}
}

// emitVector: x[v] += c · y[v] style local sweeps (two variants with
// distinct PCs so the BBV sees them as different code).
func (r *equakeRun) emitVector(e *isa.Emitter, lo, hi, variant int) {
	pc := uint32(pcEquake + 0x100 + 0x40*variant)
	for v := lo; v < hi; v++ {
		e.Load(pc+0, r.yAddr(v))
		e.Load(pc+4, r.xAddr(v))
		e.FP(pc+8, 2)
		e.Store(pc+12, r.xAddr(v))
		e.LoopBranch(pc+16, v-lo, hi-lo)
	}
}

// emitSource: FP-heavy excitation applied to the epicenter chunk.
func (r *equakeRun) emitSource(e *isa.Emitter, lo, hi int) {
	const pc = pcEquake + 0x200
	for v := lo; v < hi; v++ {
		e.Load(pc+0, r.xAddr(v))
		e.FP(pc+4, 8)
		e.Store(pc+8, r.xAddr(v))
		e.LoopBranch(pc+12, v-lo, hi-lo)
	}
}
