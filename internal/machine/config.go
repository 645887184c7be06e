// Package machine assembles the simulated DSM multiprocessor of Table I
// and drives parallel workloads through it, recording per-interval phase
// signatures (BBV snapshot, DDS, CPI). The machine only records:
// classification is offline, by core.Replay over the records.
//
// Scheduling is min-clock: the machine always advances the processor
// with the smallest local cycle count (ties to the lowest processor ID).
// Combined with busy-until accounting in the network links, memory banks
// and directories, this yields deterministic, contention-sensitive
// timing without a global event queue. The production scheduler runs
// the min-clock processor until its next shared event (a memory access,
// an interval end, the budget) lies past the runner-up's clock
// (run-until-horizon, sched.go), which commits shared events in the
// per-instruction scan's exact order at a fraction of the scheduling
// cost.
package machine

import (
	"dsmphase/internal/cache"
	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/cpu"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
)

// HomeShift is the address bit where the home node ID starts: workloads
// build addresses as home<<HomeShift | offset, giving every node a
// private 4 GiB region of the physical address space.
const HomeShift = 32

// AddrAt returns a byte address homed at node h with the given offset
// within the node's region.
func AddrAt(h int, offset uint64) uint64 {
	return uint64(h)<<HomeShift | (offset & (1<<HomeShift - 1))
}

// Config describes one simulated system instance.
type Config struct {
	// Procs is the node count (1–64; powers of two for the hypercube).
	Procs int
	// IntervalInstructions is the per-processor sampling interval in
	// committed non-synchronization instructions. The paper uses
	// 3M / Procs so that phase (and tuning) counts stay comparable as
	// the system scales.
	IntervalInstructions uint64
	// AccumulatorSize is the number of BBV accumulator counters each
	// processor snapshots at interval end (paper: 32). The footprint
	// table is not part of the machine: its size is a classification
	// setting (harness.SweepConfig.TableSize).
	AccumulatorSize int

	L1    cache.Config
	L2    cache.Config
	Mem   memory.Config
	Net   network.Config
	CPU   cpu.Config
	Costs coherence.Costs
	// Topology selects the interconnect (default: the paper's hypercube;
	// network.KindMesh2D is the ablation alternative).
	Topology network.Kind
	// Protocol selects the coherence backend (default: the line-granular
	// directory-MSI engine; coherence.KindIVY is the page-granular DSM
	// alternative).
	Protocol coherence.Kind
	// PageBytes is the IVY page size; zero selects
	// coherence.DefaultPageBytes. Ignored by the directory backend.
	PageBytes int

	// BarrierCycles is the release overhead charged when a barrier opens.
	BarrierCycles float64
	// ChargeDDSGather models the interval-end F-vector exchange as real
	// network messages (the paper argues the cost is negligible; this
	// lets the claim be measured).
	ChargeDDSGather bool
	// DDS selects ablation variants of the DDS computation.
	DDS core.DDSOptions
	// UniformDistance replaces the hop-based distance matrix with
	// all-ones (ablation).
	UniformDistance bool
	// MaxInstructions, when non-zero, aborts the run after this many
	// committed instructions per processor (runaway protection).
	MaxInstructions uint64
	// NaiveScheduler selects the original per-instruction min-scan
	// scheduler instead of the run-until-horizon loop. The two produce
	// byte-identical output (TestSchedulerEquivalence); the naive loop
	// is O(instrs × Procs) and exists as the test oracle.
	NaiveScheduler bool
}

// DefaultConfig returns the Table I system for the given node count,
// with the paper's 3M/Procs sampling interval.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:                procs,
		IntervalInstructions: 3_000_000 / uint64(procs),
		AccumulatorSize:      core.DefaultAccumulatorSize,
		L1:                   cache.L1Default(),
		L2:                   cache.L2Default(),
		Mem:                  memory.DefaultConfig(),
		Net:                  network.DefaultConfig(),
		CPU:                  cpu.DefaultConfig(),
		Costs:                coherence.DefaultCosts(),
		BarrierCycles:        200,
		ChargeDDSGather:      true,
	}
}

// TableI returns the architecture summary rows of the paper's Table I,
// derived from this configuration (for cmd/dsmsim -config and the
// documentation tests).
func (c Config) TableI() [][2]string {
	return [][2]string{
		{"Processor Frequency", "2GHz"},
		{"Functional Units", "6 ALU, 4 FPU"},
		{"Fetch/Issue/Commit", "6/6/6"},
		{"Register File", "128 Int, 128 FP"},
		{"Branch Predictor", "2,048-entry gshare"},
		{"L1", "16kB, direct-mapped, 1 cycle"},
		{"L2", "2MB, 8-way, 32B, 12 cycles"},
		{"Memory", "SDRAM interleaved, 75ns, 2.6GB/s"},
		{"Network", "Hypercube, wormhole, 400MHz pipelined router, 16ns pin-to-pin"},
	}
}
