package core

import (
	"testing"
	"testing/quick"
)

func TestDetectorKindString(t *testing.T) {
	cases := map[DetectorKind]string{
		DetectorBBV:      "BBV",
		DetectorBBVDDV:   "BBV+DDV",
		DetectorDDS:      "DDS",
		DetectorKind(42): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestIntervalSignatureCPI(t *testing.T) {
	s := IntervalSignature{Cycles: 300, Instructions: 100}
	if got := s.CPI(); got != 3 {
		t.Errorf("CPI = %v, want 3", got)
	}
	if (IntervalSignature{}).CPI() != 0 {
		t.Error("empty interval CPI must be 0")
	}
}

// intervalDetector is the per-processor detector hardware the machine
// models: a BBV accumulator that the machine snapshots at interval end,
// and the footprint table the recorded snapshots are classified with.
type intervalDetector struct {
	acc   *Accumulator
	table *FootprintTable
}

func newIntervalDetector(kind DetectorKind, thBBV, thDDS float64) *intervalDetector {
	return &intervalDetector{acc: NewAccumulator(32), table: NewKindTable(kind, 32, thBBV, thDDS)}
}

// endInterval classifies the accumulated interval with the given DDS
// and resets the accumulator for the next one.
func (d *intervalDetector) endInterval(dds float64) (phaseID int, matched bool) {
	phaseID, matched = d.table.Classify(snapshot(d.acc), dds)
	d.acc.Reset()
	return phaseID, matched
}

func feedBlock(d *intervalDetector, pc uint32, nInstr, times int) {
	for i := 0; i < times; i++ {
		for k := 0; k < nInstr; k++ {
			d.acc.Instruction()
		}
		d.acc.Branch(pc)
	}
}

func TestOnlineDetectorBBVSeparatesCode(t *testing.T) {
	d := newIntervalDetector(DetectorBBV, 0.2, 0)
	// Interval 1: block A only.
	feedBlock(d, 0x100, 8, 100)
	p1, _ := d.endInterval(0)
	// Interval 2: same code -> same phase.
	feedBlock(d, 0x100, 8, 100)
	p2, matched := d.endInterval(0)
	if !matched || p2 != p1 {
		t.Errorf("identical code must share a phase: (%d,%v) vs %d", p2, matched, p1)
	}
	// Interval 3: different block -> new phase.
	feedBlock(d, 0x2040, 8, 100)
	p3, matched := d.endInterval(0)
	if matched || p3 == p1 {
		t.Errorf("different code must be a new phase: (%d,%v)", p3, matched)
	}
}

func TestOnlineDetectorBBVBlindToDDS(t *testing.T) {
	// The baseline cannot distinguish intervals that execute the same
	// code but differ in data distribution — the paper's core criticism.
	d := newIntervalDetector(DetectorBBV, 0.2, 0)
	feedBlock(d, 0x100, 8, 100)
	p1, _ := d.endInterval(1.0) // local-heavy interval
	feedBlock(d, 0x100, 8, 100)
	p2, matched := d.endInterval(5.0) // remote-heavy interval
	if !matched || p2 != p1 {
		t.Errorf("BBV must ignore DDS: (%d,%v) vs %d", p2, matched, p1)
	}
}

func TestOnlineDetectorDDVSeparatesDataDistribution(t *testing.T) {
	d := newIntervalDetector(DetectorBBVDDV, 0.2, 0.5)
	feedBlock(d, 0x100, 8, 100)
	p1, _ := d.endInterval(1.0)
	feedBlock(d, 0x100, 8, 100)
	p2, matched := d.endInterval(5.0) // same code, different distribution
	if matched || p2 == p1 {
		t.Errorf("BBV+DDV must split on DDS: (%d,%v) vs %d", p2, matched, p1)
	}
	feedBlock(d, 0x100, 8, 100)
	p3, matched := d.endInterval(1.2) // back to local-ish: reuse phase 1
	if !matched || p3 != p1 {
		t.Errorf("DDS within threshold must match: (%d,%v) vs %d", p3, matched, p1)
	}
}

func TestDetectorDDSKindIgnoresBBV(t *testing.T) {
	d := newIntervalDetector(DetectorDDS, 0, 0.5)
	feedBlock(d, 0x100, 8, 100)
	p1, _ := d.endInterval(1.0)
	feedBlock(d, 0x2040, 8, 100) // totally different code
	p2, matched := d.endInterval(1.1)
	if !matched || p2 != p1 {
		t.Errorf("DDS-only detector must ignore BBV: (%d,%v) vs %d", p2, matched, p1)
	}
}

func TestNewKindTableUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKindTable(DetectorKind(9), 32, 0.1, 0.1)
}

func TestClassifyRecordedMatchesOnline(t *testing.T) {
	// The offline replay must produce exactly the same phase sequence as
	// a footprint table fed the intervals one by one at the same
	// thresholds.
	mk := func(x, dds float64) IntervalSignature {
		return IntervalSignature{BBV: []float64{x, 1 - x}, DDS: dds}
	}
	sigs := []IntervalSignature{
		mk(1.0, 1.0), mk(0.95, 1.05), mk(0.0, 1.0), mk(1.0, 4.0),
		mk(0.97, 0.98), mk(0.05, 1.0), mk(1.0, 4.1),
	}
	for _, kind := range []DetectorKind{DetectorBBV, DetectorBBVDDV, DetectorDDS} {
		offline := ClassifyRecorded(kind, 4, 0.2, 0.3, sigs)
		table := NewKindTable(kind, 4, 0.2, 0.3)
		for i, s := range sigs {
			id, _ := table.Classify(s.BBV, s.DDS)
			if id != offline[i] {
				t.Errorf("%v: interval %d offline=%d online=%d", kind, i, offline[i], id)
			}
		}
	}
}

func TestClassifyRecordedUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ClassifyRecorded(DetectorKind(7), 4, 0.1, 0.1, nil)
}

// Property: ClassifyRecorded is deterministic and assigns IDs densely
// starting at 0.
func TestClassifyRecordedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		sigs := make([]IntervalSignature, len(raw))
		for i, r := range raw {
			x := float64(r%8) / 8
			sigs[i] = IntervalSignature{BBV: []float64{x, 1 - x}, DDS: float64(r % 4)}
		}
		a := ClassifyRecorded(DetectorBBVDDV, 8, 0.1, 0.5, sigs)
		b := ClassifyRecorded(DetectorBBVDDV, 8, 0.1, 0.5, sigs)
		maxID := -1
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if a[i] > maxID {
				maxID = a[i]
			}
			if a[i] < 0 {
				return false
			}
		}
		// IDs dense: every id in [0,maxID] appears.
		seen := make([]bool, maxID+1)
		for _, id := range a {
			seen[id] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
