package core

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
func (r *Replay) Classify(kind DetectorKind, thBBV, thDDS float64) []int {
	r.table.Reset()
	r.table.configure(kind, thBBV, thDDS)
	row := 0
	for i := range r.sigs {
		r.ids[i], _ = r.table.classify(nil, r.tri[row:row+i], i, r.sigs[i].DDS)
		row += i
	}
	return r.ids
}
