package core

import "math/bits"

// Working-set signature detector (Dhodapkar & Smith, ISCA'02) — the
// other uniprocessor phase-detection baseline the paper's related-work
// section discusses. An interval's signature is a lossy bit vector of
// the instruction blocks it touched; two intervals belong to the same
// phase when the relative signature distance
//
//	δ(A, B) = |A ⊕ B| / |A ∪ B|
//
// is at or below a threshold. Dhodapkar & Smith (MICRO'03) found BBV
// signatures more stable and more sensitive than working sets, and the
// paper builds on BBVs for that reason; this implementation lets the two
// baselines be compared on DSM executions (TestWSSBaselineOrdering).

// WSSWords is the signature size in 64-bit words (1024 bits, matching
// the kilobit signatures of the original proposal).
const WSSWords = 16

// WSSignature is a working-set signature bit vector.
type WSSignature [WSSWords]uint64

// wssHash maps an instruction-block address (PC >> 6) to a bit index.
func wssHash(pc uint32) uint {
	h := (pc >> 6) * 2654435761
	return uint(h >> (32 - 10)) // top 10 bits: 1024-bit signature
}

// Touch records an instruction fetch at pc.
func (s *WSSignature) Touch(pc uint32) {
	b := wssHash(pc)
	s[b>>6] |= 1 << (b & 63)
}

// Reset clears the signature.
func (s *WSSignature) Reset() { *s = WSSignature{} }

// Population returns the number of set bits.
func (s *WSSignature) Population() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// RelativeDistance returns δ(s, o) ∈ [0, 1]; two empty signatures have
// distance 0.
func (s *WSSignature) RelativeDistance(o *WSSignature) float64 {
	var xor, or int
	for i := range s {
		xor += bits.OnesCount64(s[i] ^ o[i])
		or += bits.OnesCount64(s[i] | o[i])
	}
	if or == 0 {
		return 0
	}
	return float64(xor) / float64(or)
}

// wssEntry is one row of the working-set footprint table.
type wssEntry struct {
	sig     WSSignature
	phaseID int
	lastUse uint64
	valid   bool
}

// WSSTable classifies working-set signatures against stored ones with
// LRU replacement, mirroring FootprintTable for the WSS baseline.
type WSSTable struct {
	entries   []wssEntry
	threshold float64
	clock     uint64
	nextPhase int
}

// NewWSSTable returns a table with the given capacity and relative-
// distance threshold.
func NewWSSTable(size int, threshold float64) *WSSTable {
	if size <= 0 {
		panic("core: WSS table size must be positive")
	}
	return &WSSTable{entries: make([]wssEntry, size), threshold: threshold}
}

// PhasesAllocated returns the number of phase IDs handed out.
func (t *WSSTable) PhasesAllocated() int { return t.nextPhase }

// Classify assigns a phase ID to sig, allocating (with LRU replacement)
// when no stored signature is within the threshold.
func (t *WSSTable) Classify(sig *WSSignature) (phaseID int, matched bool) {
	t.clock++
	bestIdx := -1
	bestDist := 2.0
	lruIdx := 0
	lruUse := ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			if lruUse != 0 {
				lruIdx, lruUse = i, 0
			}
			continue
		}
		if e.lastUse < lruUse {
			lruIdx, lruUse = i, e.lastUse
		}
		d := sig.RelativeDistance(&e.sig)
		if d <= t.threshold && d < bestDist {
			bestDist, bestIdx = d, i
		}
	}
	if bestIdx >= 0 {
		e := &t.entries[bestIdx]
		e.lastUse = t.clock
		return e.phaseID, true
	}
	e := &t.entries[lruIdx]
	e.sig = *sig
	e.phaseID = t.nextPhase
	e.lastUse = t.clock
	e.valid = true
	t.nextPhase++
	return e.phaseID, false
}

// ClassifyRecordedWSS replays WSS-table dynamics over recorded interval
// signatures at the given threshold.
func ClassifyRecordedWSS(tableSize int, threshold float64, sigs []IntervalSignature) []int {
	table := NewWSSTable(tableSize, threshold)
	out := make([]int, len(sigs))
	for i := range sigs {
		out[i], _ = table.Classify(&sigs[i].WSS)
	}
	return out
}
