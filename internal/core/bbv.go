// Package core implements the paper's phase-detection hardware: the BBV
// (basic block vector) detector of Sherwood et al. used as the
// uniprocessor baseline, and the paper's contribution — the DDV (data
// distribution vector) extension that adds a frequency matrix, a distance
// matrix and a contention vector, summarized per interval into a data
// distribution scalar (DDS) and used alongside the BBV for two-threshold
// phase classification in DSM multiprocessors.
package core

// DefaultAccumulatorSize is the number of accumulator counters per
// processor in the paper's configuration (32).
const DefaultAccumulatorSize = 32

// DefaultFootprintSize is the number of footprint-table entries per
// processor in the paper's configuration (32).
const DefaultFootprintSize = 32

// Accumulator is the BBV accumulator: an array of hardware counters
// hashed by branch instruction address. On every committed branch the
// counter selected by the branch PC is incremented by the number of
// instructions committed since the previous branch, approximating the
// execution frequency distribution of basic blocks.
type Accumulator struct {
	counts     []uint64
	sinceLast  uint64
	totalInstr uint64
}

// NewAccumulator returns an accumulator with the given number of
// counters. size must be positive.
func NewAccumulator(size int) *Accumulator {
	if size <= 0 {
		panic("core: accumulator size must be positive")
	}
	return &Accumulator{counts: make([]uint64, size)}
}

// Size returns the number of counters.
func (a *Accumulator) Size() int { return len(a.counts) }

// hashPC maps a branch PC to a counter index using Fibonacci hashing:
// multiply by the golden-ratio constant and range-map through the HIGH
// bits of the product. (Taking the product modulo a power-of-two table
// size would use only its low bits, and branch PCs that differ by a
// multiple of size·4 would all collide.)
func hashPC(pc uint32, size int) int {
	h := (pc >> 2) * 2654435761
	return int(uint64(h) * uint64(size) >> 32)
}

// Instruction records one committed non-branch, non-sync instruction.
func (a *Accumulator) Instruction() {
	a.sinceLast++
	a.totalInstr++
}

// Branch records a committed branch at pc: the counter hashed from pc is
// incremented by the number of instructions since the last branch, plus
// one for the branch itself.
func (a *Accumulator) Branch(pc uint32) {
	a.sinceLast++ // the branch instruction itself
	a.totalInstr++
	a.counts[hashPC(pc, len(a.counts))] += a.sinceLast
	a.sinceLast = 0
}

// Total returns the number of instructions recorded since the last Reset.
func (a *Accumulator) Total() uint64 { return a.totalInstr }

// SnapshotInto writes the accumulator normalized to sum 1 (the
// fractional basic-block distribution for the interval) into dst, which
// must have the accumulator's length, and returns it. An interval with no
// recorded instructions yields a zero vector. The machine's endInterval
// hands in arena-backed slices, so the per-interval hot path allocates
// nothing.
func (a *Accumulator) SnapshotInto(dst []float64) []float64 {
	if len(dst) != len(a.counts) {
		panic("core: SnapshotInto needs a dst of the accumulator's size")
	}
	var sum uint64
	for _, c := range a.counts {
		sum += c
	}
	// Instructions after the final branch of the interval are not yet
	// attributed to any counter; they are dropped, as in the hardware,
	// where the accumulator only advances on branch commits.
	if sum == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	inv := 1 / float64(sum)
	for i, c := range a.counts {
		dst[i] = float64(c) * inv
	}
	return dst
}

// Reset zeroes all counters, beginning a new interval.
func (a *Accumulator) Reset() {
	for i := range a.counts {
		a.counts[i] = 0
	}
	a.sinceLast = 0
	a.totalInstr = 0
}

// Manhattan returns the Manhattan (L1) distance between two vectors of
// equal length. For vectors normalized to sum 1 the distance lies in
// [0, 2].
func Manhattan(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("core: Manhattan distance requires equal-length vectors")
	}
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}
