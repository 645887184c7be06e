package workloads

import (
	"fmt"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
)

// Art models SPEC-OMP Art (adaptive resonance theory neural network,
// MinneSPEC-Large analogue): every thread scans input windows, computes
// F1-layer activations locally, searches all F2 neurons for the best
// match — a broadcast read of weight vectors distributed round-robin
// across nodes — then updates the winner's weights at the winner's home.
//
// Phase-detection relevance: the search phase reads every node's memory
// (uniform remote distribution, high contention), while the update phase
// concentrates stores on a single, sample-dependent home — two phases
// with similar BBVs whose DDS differ sharply, plus training/testing
// epochs that change the kernel mix over time.
type Art struct{}

func init() { Register(Art{}) }

// Name implements Workload.
func (Art) Name() string { return "art" }

// Description implements Workload.
func (Art) Description() string {
	return "SPEC-OMP ART neural network (F1 scan / F2 winner search / winner weight update)"
}

type artParams struct {
	Neurons int // F2 layer size
	Weights int // weights per neuron (floats)
	Samples int // total samples per epoch, divided across threads
	Epochs  int
}

func (Art) params(sz Size) artParams {
	switch sz {
	case SizeTest:
		return artParams{Neurons: 32, Weights: 256, Samples: 32, Epochs: 2}
	case SizeSmall:
		return artParams{Neurons: 64, Weights: 512, Samples: 64, Epochs: 3}
	default:
		return artParams{Neurons: 128, Weights: 1024, Samples: 128, Epochs: 4} // MinneSPEC-Large analogue
	}
}

// InputSet implements Workload.
func (w Art) InputSet(sz Size) string {
	p := w.params(sz)
	return fmt.Sprintf("MinneSPEC-Large analogue: %d F2 neurons × %d weights, %d samples/epoch × %d epochs",
		p.Neurons, p.Weights, p.Samples, p.Epochs)
}

const pcArt = 0x3000_0000

type artRun struct {
	n    int
	p    artParams
	seed uint64
}

// weightAddr returns the address of line l of neuron m's weight vector;
// neurons are distributed round-robin across nodes.
func (r *artRun) weightAddr(m, l int) uint64 {
	return machine.AddrAt(m%r.n, uint64(m)*uint64(r.p.Weights)*8+uint64(l)*32)
}

// inputAddr returns thread tid's input-window element address (local).
func (r *artRun) inputAddr(tid, i int) uint64 {
	const inRegion = 1 << 28
	return machine.AddrAt(tid, inRegion+uint64(i)*8)
}

// winner picks the matching F2 neuron for (tid, epoch, sample) — skewed
// toward low neuron indices (min of two draws) so some homes are hot.
func (r *artRun) winner(tid, epoch, s int) int {
	h1 := rng.Hash64(r.seed ^ uint64(tid)<<32 ^ uint64(epoch)<<16 ^ uint64(s))
	h2 := rng.Hash64(h1)
	a, b := int(h1%uint64(r.p.Neurons)), int(h2%uint64(r.p.Neurons))
	if b < a {
		a = b
	}
	return a
}

// Threads implements Workload.
func (w Art) Threads(n int, sz Size, seed uint64) []isa.Thread {
	p := w.params(sz)
	r := &artRun{n: n, p: p, seed: seed}
	// Samples are data-parallel: each thread processes its share of the
	// epoch's total, so per-processor work shrinks as the system scales
	// (like the OMP loop scheduling in the real Art).
	perThread := max(p.Samples/n, 1)
	// f1, search and normalize run once per thread; the update kernel's
	// item is the sample's winning neuron.
	self := func(tid int) []BlockItem { return []BlockItem{{A: tid}} }
	f1 := &kernel{List: self, Render: func(e *isa.Emitter, it BlockItem) { r.emitF1(e, it.A) }}
	search := &kernel{List: self, Render: func(e *isa.Emitter, _ BlockItem) { r.emitSearch(e) }}
	normalize := &kernel{List: self, Render: func(e *isa.Emitter, it BlockItem) { r.emitNormalize(e, it.A) }}
	update := func(ep, s int) *kernel {
		return &kernel{
			List:   func(tid int) []BlockItem { return []BlockItem{{A: r.winner(tid, ep, s)}} },
			Render: func(e *isa.Emitter, it BlockItem) { r.emitUpdate(e, it.A) },
		}
	}
	prog := &Program{BarrierPC: pcArt + 0xF00}
	for ep := 0; ep < p.Epochs; ep++ {
		// Training pass: F1 → search → update per sample, bulk-
		// synchronous across threads.
		for s := 0; s < perThread; s++ {
			blocks := []Block{f1, search}
			// Vigilance reset: every 4th sample searches twice.
			if s%4 == 3 {
				blocks = append(blocks, search)
			}
			prog.Phases = append(prog.Phases, Phase{Blocks: append(blocks, update(ep, s))})
		}
		// Epoch-end normalization over this thread's own neurons.
		prog.Phases = append(prog.Phases, Phase{Blocks: []Block{normalize}})
		// Test pass: F1 + search only (no updates) over half the
		// samples — a lighter phase with a different kernel mix.
		for s := 0; s < (perThread+1)/2; s++ {
			prog.Phases = append(prog.Phases, Phase{Blocks: []Block{f1, search}})
		}
	}
	return prog.Threads(n, seed)
}

// emitF1: local input-window activation scan.
func (r *artRun) emitF1(e *isa.Emitter, tid int) {
	const pc = pcArt + 0x000
	for i := 0; i < r.p.Weights; i++ {
		e.Load(pc+0, r.inputAddr(tid, i))
		e.FP(pc+4, 1)
		e.LoopBranch(pc+8, i, r.p.Weights)
	}
}

// emitSearch: dot product of the activation against every neuron's
// weight vector — the broadcast-read phase.
func (r *artRun) emitSearch(e *isa.Emitter) {
	const pc = pcArt + 0x100
	lines := r.p.Weights * 8 / 32
	for m := 0; m < r.p.Neurons; m++ {
		for l := 0; l < lines; l++ {
			e.Load(pc+0, r.weightAddr(m, l))
			e.FP(pc+4, 2)
			e.LoopBranch(pc+8, l, lines)
		}
		e.Int(pc+12, 2) // max-tracking compare
		e.Branch(pc+16, rng.Hash64(uint64(m))%3 == 0)
		e.LoopBranch(pc+20, m, r.p.Neurons)
	}
}

// emitUpdate: read-modify-write of the winner's weight vector at its
// home node.
func (r *artRun) emitUpdate(e *isa.Emitter, winner int) {
	const pc = pcArt + 0x200
	lines := r.p.Weights * 8 / 32
	for l := 0; l < lines; l++ {
		e.Load(pc+0, r.weightAddr(winner, l))
		e.FP(pc+4, 2)
		e.Store(pc+8, r.weightAddr(winner, l))
		e.LoopBranch(pc+12, l, lines)
	}
}

// emitNormalize: epoch-end pass over the neurons homed at this thread.
func (r *artRun) emitNormalize(e *isa.Emitter, tid int) {
	const pc = pcArt + 0x300
	lines := r.p.Weights * 8 / 32
	for m := tid; m < r.p.Neurons; m += r.n {
		for l := 0; l < lines; l++ {
			e.Load(pc+0, r.weightAddr(m, l))
			e.FP(pc+4, 1)
			e.Store(pc+8, r.weightAddr(m, l))
			e.LoopBranch(pc+12, l, lines)
		}
		e.LoopBranch(pc+16, m/r.n, (r.p.Neurons+r.n-1)/r.n)
	}
}
