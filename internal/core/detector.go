package core

import "fmt"

// Detector kinds.
type DetectorKind int

const (
	// DetectorBBV is the uniprocessor baseline: BBV signature only.
	DetectorBBV DetectorKind = iota
	// DetectorBBVDDV is the paper's contribution: BBV plus DDS, matched
	// with two thresholds.
	DetectorBBVDDV
	// DetectorDDS is an ablation variant that classifies on the DDS
	// alone (BBV threshold effectively infinite).
	DetectorDDS
	// DetectorWSS is the working-set-signature baseline of Dhodapkar &
	// Smith, discussed in the paper's related work (§V).
	DetectorWSS
)

// String returns the detector name used in figures and tables.
func (k DetectorKind) String() string {
	switch k {
	case DetectorBBV:
		return "BBV"
	case DetectorBBVDDV:
		return "BBV+DDV"
	case DetectorDDS:
		return "DDS"
	case DetectorWSS:
		return "WSS"
	default:
		return "unknown"
	}
}

// ParseDetectorKind converts a figure/table detector name ("BBV",
// "BBV+DDV", "DDS", "WSS") back to its kind — the inverse of String,
// used by serialized experiment artifacts.
func ParseDetectorKind(name string) (DetectorKind, error) {
	for _, k := range []DetectorKind{DetectorBBV, DetectorBBVDDV, DetectorDDS, DetectorWSS} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown detector kind %q", name)
}

// IntervalSignature is everything the phase-detection hardware observes
// about one sampling interval on one processor. The machine records one
// per (processor, interval); classification — online or the offline
// 200-threshold sweep — consumes only these.
type IntervalSignature struct {
	// Proc is the processor that owns the interval.
	Proc int
	// Index is the interval's ordinal position on that processor.
	Index int
	// BBV is the normalized accumulator snapshot (sums to 1).
	BBV []float64
	// WSS is the interval's instruction working-set signature (for the
	// Dhodapkar-Smith baseline detector).
	WSS WSSignature
	// DDS is the normalized data distribution scalar.
	DDS float64
	// RawDDS is the unnormalized Σ F·D·C sum.
	RawDDS float64
	// PhaseID is the phase the online hardware detector assigned at
	// interval end, or -1 when the machine ran without one (offline
	// classification via ClassifyRecorded).
	PhaseID int
	// Instructions is the committed non-synchronization instruction count
	// (the interval length definition of the paper).
	Instructions uint64
	// Cycles is the number of processor cycles the interval spanned.
	Cycles uint64
	// LocalAccesses and RemoteAccesses count committed memory operations
	// by home locality (diagnostic; not used for classification).
	LocalAccesses  uint64
	RemoteAccesses uint64
}

// CPI returns the interval's cycles per committed non-sync instruction.
func (s IntervalSignature) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// Detector is the per-processor online phase detector: a BBV accumulator
// plus footprint table, optionally extended with DDS matching. It mirrors
// the hardware organization of Fig. 1 / Fig. 3 in the paper.
type Detector struct {
	Kind  DetectorKind
	Acc   *Accumulator
	Table *FootprintTable
}

// NewDetector builds an online detector. For DetectorBBV thDDS is
// ignored. For DetectorDDS the BBV threshold is set permissive (see
// NewKindTable).
func NewDetector(kind DetectorKind, accSize, tableSize int, thBBV, thDDS float64) *Detector {
	return &Detector{Kind: kind, Acc: NewAccumulator(accSize), Table: NewKindTable(kind, tableSize, thBBV, thDDS)}
}

// EndInterval classifies the just-finished interval given its DDS and
// resets the accumulator for the next interval. It returns the phase ID.
func (d *Detector) EndInterval(dds float64) (phaseID int, matched bool) {
	bbv := d.Acc.Snapshot()
	phaseID, matched = d.Table.Classify(bbv, dds)
	d.Acc.Reset()
	return phaseID, matched
}

// ClassifyRecorded replays footprint-table dynamics over a recorded
// per-processor signature sequence at the given thresholds, returning the
// phase ID assigned to each interval. This is the offline equivalent of
// running the online detector with those thresholds; it is a one-setting
// Replay (the WSS baseline replays its own table).
func ClassifyRecorded(kind DetectorKind, tableSize int, thBBV, thDDS float64, sigs []IntervalSignature) []int {
	if kind == DetectorWSS {
		// The WSS baseline classifies on the working-set signature with
		// thBBV interpreted as the relative-distance threshold.
		return ClassifyRecordedWSS(tableSize, thBBV, sigs)
	}
	return NewReplay(sigs, tableSize).Classify(kind, thBBV, thDDS)
}
