package core

import (
	"fmt"
	"math"
)

// FootprintEntry is one footprint-table row: the stored BBV signature,
// the stored DDS value, and the phase identifier assigned when the entry
// was allocated.
type FootprintEntry struct {
	BBV     []float64
	DDS     float64
	PhaseID int
	// src is the index of the allocating interval when the table is
	// driven by a Replay, which looks distances up instead of storing BBV.
	src     int
	lastUse uint64
	valid   bool
}

// FootprintTable records previously observed interval signatures and
// classifies new intervals against them. Entries are replaced LRU, as in
// the paper's 32-vector footprint table.
//
// Classification uses one or two thresholds: an interval matches an entry
// if its BBV Manhattan distance is at or below ThBBV and, when the table
// was built with DDS enabled, its absolute DDS difference is at or below
// ThDDS. Among matching entries the one with the smallest Manhattan
// distance wins ("the entry with the smallest Manhattan distance is
// taken"). If no entry matches, a new entry is allocated — possibly
// replacing the least recently used one — and assigned a fresh phase ID.
type FootprintTable struct {
	entries   []FootprintEntry
	thBBV     float64
	thDDS     float64
	useDDS    bool
	clock     uint64
	nextPhase int
	// aboveBBV and aboveDDS are the smallest values that failed the BBV
	// test (a distance d > thBBV) and the DDS test (an |ΔDDS| > thDDS of
	// an entry that passed the BBV test) since the last Reset, +Inf when
	// none did. Every threshold in [thBBV, aboveBBV) × [thDDS, aboveDDS)
	// gives each comparison made so far the same outcome; Replay reports
	// that box.
	aboveBBV float64
	aboveDDS float64
}

// NewFootprintTable returns a table with the given number of entries and
// BBV threshold; DDS matching is disabled (baseline BBV detector).
func NewFootprintTable(size int, thBBV float64) *FootprintTable {
	if size <= 0 {
		panic("core: footprint table size must be positive")
	}
	return &FootprintTable{entries: make([]FootprintEntry, size), thBBV: thBBV,
		aboveBBV: math.Inf(1), aboveDDS: math.Inf(1)}
}

// NewFootprintTableDDS returns a table that additionally requires the DDS
// difference to be at or below thDDS (the paper's BBV+DDV detector).
func NewFootprintTableDDS(size int, thBBV, thDDS float64) *FootprintTable {
	t := NewFootprintTable(size, thBBV)
	t.thDDS = thDDS
	t.useDDS = true
	return t
}

// NewKindTable returns the table a footprint-table detector kind
// classifies with (see configure). It panics for DetectorWSS, which
// classifies with a WSSTable, and for an unknown kind.
func NewKindTable(kind DetectorKind, size int, thBBV, thDDS float64) *FootprintTable {
	t := NewFootprintTable(size, 0)
	t.configure(kind, thBBV, thDDS)
	return t
}

// configure sets the thresholds a detector kind classifies with:
// DetectorBBV matches on the BBV alone, DetectorBBVDDV on both
// thresholds, and DetectorDDS on the DDS alone — its BBV threshold is
// permissive (2 is the maximum Manhattan distance between normalized
// vectors, so every interval BBV-matches every entry).
func (t *FootprintTable) configure(kind DetectorKind, thBBV, thDDS float64) {
	switch kind {
	case DetectorBBV:
		t.thBBV, t.thDDS, t.useDDS = thBBV, 0, false
	case DetectorBBVDDV:
		t.thBBV, t.thDDS, t.useDDS = thBBV, thDDS, true
	case DetectorDDS:
		t.thBBV, t.thDDS, t.useDDS = 2.0, thDDS, true
	default:
		panic(fmt.Sprintf("core: detector kind %v has no footprint table", kind))
	}
}

// Size returns the number of table entries.
func (t *FootprintTable) Size() int { return len(t.entries) }

// PhasesAllocated returns the total number of distinct phase IDs handed
// out so far (including IDs whose entries have since been evicted).
func (t *FootprintTable) PhasesAllocated() int { return t.nextPhase }

// Classify assigns a phase ID to the interval signature (bbv, dds). It
// returns the phase ID and whether the interval matched an existing entry
// (false means a new phase was allocated).
func (t *FootprintTable) Classify(bbv []float64, dds float64) (phaseID int, matched bool) {
	return t.classify(bbv, nil, -1, dds)
}

// classify is the table's one copy of the match/LRU/allocate dynamics,
// shared by the online Classify and the offline Replay. Online callers
// pass src < 0: the distance to an entry is Manhattan(bbv, e.BBV), and an
// allocation copies bbv into the entry. A Replay passes the recorded
// interval's index src and row, its precomputed distances to every
// earlier interval of the sequence: the distance to an entry is
// row[e.src] — the same Manhattan call on the same vectors, so the same
// float — and an allocation records src instead of copying.
func (t *FootprintTable) classify(bbv, row []float64, src int, dds float64) (phaseID int, matched bool) {
	t.clock++
	bestIdx := -1
	bestDist := math.Inf(1)
	var lruIdx int
	lruUse := uint64(math.MaxUint64)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			// Prefer invalid slots for allocation.
			if lruUse != 0 {
				lruIdx, lruUse = i, 0
			}
			continue
		}
		if e.lastUse < lruUse {
			lruIdx, lruUse = i, e.lastUse
		}
		var d float64
		if src < 0 {
			d = Manhattan(bbv, e.BBV)
		} else {
			d = row[e.src]
		}
		if d > t.thBBV {
			if d < t.aboveBBV {
				t.aboveBBV = d
			}
			continue
		}
		if t.useDDS {
			if dd := math.Abs(dds - e.DDS); dd > t.thDDS {
				if dd < t.aboveDDS {
					t.aboveDDS = dd
				}
				continue
			}
		}
		if d < bestDist {
			bestDist, bestIdx = d, i
		}
	}
	if bestIdx >= 0 {
		e := &t.entries[bestIdx]
		e.lastUse = t.clock
		return e.PhaseID, true
	}
	// Allocate: transfer the accumulator snapshot (and DDS) into the
	// victim entry and assign a fresh phase ID.
	e := &t.entries[lruIdx]
	if src < 0 {
		e.BBV = append(e.BBV[:0], bbv...)
	}
	e.src = src
	e.DDS = dds
	e.PhaseID = t.nextPhase
	e.lastUse = t.clock
	e.valid = true
	t.nextPhase++
	return e.PhaseID, false
}

// Reset clears all entries, the phase-ID counter and the record of
// failed threshold tests.
func (t *FootprintTable) Reset() {
	for i := range t.entries {
		t.entries[i] = FootprintEntry{}
	}
	t.clock = 0
	t.nextPhase = 0
	t.aboveBBV, t.aboveDDS = math.Inf(1), math.Inf(1)
}
