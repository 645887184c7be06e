package core

import (
	"math"
	"testing"
	"testing/quick"
)

func vec(vals ...float64) []float64 { return vals }

func TestFootprintFirstIntervalAllocates(t *testing.T) {
	ft := NewFootprintTable(4, 0.1)
	id, matched := ft.Classify(vec(1, 0, 0, 0), 0)
	if matched {
		t.Error("first interval must allocate a new phase")
	}
	if id != 0 {
		t.Errorf("first phase ID = %d, want 0", id)
	}
}

func TestFootprintMatchWithinThreshold(t *testing.T) {
	ft := NewFootprintTable(4, 0.2)
	id0, _ := ft.Classify(vec(0.5, 0.5, 0, 0), 0)
	// Manhattan distance 0.1 <= 0.2: same phase.
	id1, matched := ft.Classify(vec(0.55, 0.45, 0, 0), 0)
	if !matched || id1 != id0 {
		t.Errorf("expected match with phase %d, got (%d, %v)", id0, id1, matched)
	}
	// Distance 1.0 > 0.2: new phase.
	id2, matched := ft.Classify(vec(0, 0, 0.5, 0.5), 0)
	if matched || id2 == id0 {
		t.Errorf("expected new phase, got (%d, %v)", id2, matched)
	}
}

func TestFootprintClosestEntryWins(t *testing.T) {
	// Two entries 0.5 apart with threshold 0.3: a probe between them can
	// match both; the nearer one must win.
	ft := NewFootprintTable(4, 0.3)
	a, _ := ft.Classify(vec(0.5, 0.5, 0, 0), 0)
	b, _ := ft.Classify(vec(0.25, 0.75, 0, 0), 0)
	if a == b {
		t.Fatal("setup: entries should be distinct phases")
	}
	// Probe at (0.4, 0.6): distance 0.2 to a, 0.3 to b — both within
	// threshold, a is closer.
	id, matched := ft.Classify(vec(0.4, 0.6, 0, 0), 0)
	if !matched || id != a {
		t.Errorf("closest entry should win: got (%d, %v), want (%d, true)", id, matched, a)
	}
}

func TestFootprintDDSThreshold(t *testing.T) {
	ft := NewKindTable(DetectorBBVDDV, 4, 0.5, 0.1)
	id0, _ := ft.Classify(vec(1, 0), 1.0)
	// Identical BBV but DDS differs by 0.5 > 0.1: must be a new phase.
	id1, matched := ft.Classify(vec(1, 0), 1.5)
	if matched || id1 == id0 {
		t.Errorf("DDS mismatch must force a new phase: got (%d, %v)", id1, matched)
	}
	// DDS within threshold: match.
	id2, matched := ft.Classify(vec(1, 0), 1.05)
	if !matched || id2 != id0 {
		t.Errorf("DDS within threshold must match phase %d: got (%d, %v)", id0, id2, matched)
	}
}

func TestFootprintLRUEviction(t *testing.T) {
	ft := NewFootprintTable(2, 0.1)
	a, _ := ft.Classify(vec(1, 0, 0), 0) // entry A
	b, _ := ft.Classify(vec(0, 1, 0), 0) // entry B
	// Touch A so B becomes LRU.
	ft.Classify(vec(1, 0, 0), 0)
	// New signature evicts B.
	c, matched := ft.Classify(vec(0, 0, 1), 0)
	if matched {
		t.Fatal("expected allocation")
	}
	// A must still be present...
	idA, m := ft.Classify(vec(1, 0, 0), 0)
	if !m || idA != a {
		t.Errorf("A evicted wrongly: got (%d,%v) want (%d,true)", idA, m, a)
	}
	// ...and B's signature must now allocate a fresh phase ID.
	idB, m := ft.Classify(vec(0, 1, 0), 0)
	if m || idB == b {
		t.Errorf("B should have been evicted: got (%d,%v)", idB, m)
	}
	if c == a || c == b {
		t.Error("phase IDs must be unique")
	}
	if ft.PhasesAllocated() != 4 {
		t.Errorf("PhasesAllocated = %d, want 4", ft.PhasesAllocated())
	}
}

func TestFootprintReset(t *testing.T) {
	ft := NewFootprintTable(2, 0.1)
	ft.Classify(vec(1, 0), 0)
	ft.Reset()
	if ft.PhasesAllocated() != 0 {
		t.Error("phase counter not reset")
	}
	id, matched := ft.Classify(vec(1, 0), 0)
	if matched || id != 0 {
		t.Errorf("after reset, first classify = (%d, %v), want (0, false)", id, matched)
	}
}

func TestFootprintStoredSignatureImmutable(t *testing.T) {
	ft := NewFootprintTable(2, 0.3)
	sig := vec(1, 0)
	ft.Classify(sig, 0)
	sig[0] = 0 // caller mutates its buffer; table must hold a copy
	sig[1] = 1
	_, matched := ft.Classify(vec(1, 0), 0)
	if !matched {
		t.Error("table must copy stored signatures, not alias caller buffers")
	}
}

// Property: a zero-threshold table assigns two intervals the same phase
// only if their signatures are identical; and phase IDs are always in
// [0, PhasesAllocated).
func TestFootprintZeroThresholdProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ft := NewFootprintTable(64, 0)
		type res struct {
			sig [2]float64
			id  int
		}
		var seen []res
		for _, r := range raw {
			x := float64(r%4) / 4
			sig := [2]float64{x, 1 - x}
			id, _ := ft.Classify(sig[:], 0)
			if id < 0 || id >= ft.PhasesAllocated() {
				return false
			}
			for _, s := range seen {
				same := s.sig == sig
				if (s.id == id) != same {
					return false
				}
			}
			seen = append(seen, res{sig, id})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with an infinite threshold every interval after the first
// matches (single phase).
func TestFootprintInfiniteThresholdProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		ft := NewKindTable(DetectorBBVDDV, 8, math.Inf(1), math.Inf(1))
		first := true
		for _, r := range raw {
			x := float64(r) / 255
			id, matched := ft.Classify(vec(x, 1-x), float64(r))
			if first {
				if matched {
					return false
				}
				first = false
			} else if !matched || id != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewFootprintTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 0")
		}
	}()
	NewFootprintTable(0, 0.1)
}
