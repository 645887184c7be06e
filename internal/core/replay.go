package core

import "math"

// Replay classifies one processor's recorded signature sequence at any
// number of threshold settings: the paper's offline threshold sweep.
// Every distance a footprint table can need while replaying the sequence
// is a BBV distance between two of its recorded intervals, and that set
// is the same at every setting. NewReplay therefore computes each
// pairwise distance once, and Classify replays the table dynamics
// (FootprintTable.classify, the code the online detector runs) as index
// lookups into it, reusing the table and the ID buffer.
//
// The distances take n(n-1)/2 float64 for n intervals.
type Replay struct {
	sigs []IntervalSignature
	// tri is the lower triangle of the distance matrix: row i holds
	// Manhattan(sigs[i].BBV, sigs[j].BBV) for j < i and starts at
	// i(i-1)/2.
	tri   []float64
	table *FootprintTable
	ids   []int
}

// NewReplay computes the pairwise BBV distances of sigs for a footprint
// table of tableSize entries.
func NewReplay(sigs []IntervalSignature, tableSize int) *Replay {
	n := len(sigs)
	r := &Replay{
		sigs:  sigs,
		tri:   make([]float64, 0, n*(n-1)/2),
		table: NewFootprintTable(tableSize, 0),
		ids:   make([]int, n),
	}
	for i := range sigs {
		for j := 0; j < i; j++ {
			// The argument order of FootprintTable.Classify: the new
			// interval first, the stored entry second.
			r.tri = append(r.tri, Manhattan(sigs[i].BBV, sigs[j].BBV))
		}
	}
	return r
}

// Classify returns the phase ID the given detector kind assigns to every
// interval at thresholds (thBBV, thDDS): the IDs an online detector at
// those thresholds would have produced. The slice is the replay's own
// buffer and is overwritten by the next call.
//
// It also returns the box of settings that give the same IDs: every
// setting in it makes every comparison of the replay the same way, so
// (by induction over the intervals) the table evolves identically. The
// box is taken on the thresholds configure makes effective and spans
// every value on an axis the kind ignores (thDDS for DetectorBBV, thBBV
// for DetectorDDS).
func (r *Replay) Classify(kind DetectorKind, thBBV, thDDS float64) ([]int, Box) {
	r.table.Reset()
	r.table.configure(kind, thBBV, thDDS)
	row := 0
	for i := range r.sigs {
		r.ids[i], _ = r.table.classify(nil, r.tri[row:row+i], i, r.sigs[i].DDS)
		row += i
	}
	box := Box{LoBBV: thBBV, HiBBV: r.table.aboveBBV, LoDDS: thDDS, HiDDS: r.table.aboveDDS}
	switch kind {
	case DetectorBBV:
		box.LoDDS, box.HiDDS = math.Inf(-1), math.Inf(1)
	case DetectorDDS:
		box.LoBBV, box.HiBBV = math.Inf(-1), math.Inf(1)
	}
	return r.ids, box
}

// Box is the half-open threshold rectangle [LoBBV, HiBBV) × [LoDDS,
// HiDDS). It is half-open above because a table test fails on d > th:
// a threshold equal to the smallest failing value passes it. The zero
// Box is empty.
type Box struct {
	LoBBV, HiBBV, LoDDS, HiDDS float64
}

// Contains reports whether the setting (thBBV, thDDS) lies in b.
func (b Box) Contains(thBBV, thDDS float64) bool {
	return b.LoBBV <= thBBV && thBBV < b.HiBBV && b.LoDDS <= thDDS && thDDS < b.HiDDS
}
