// Package harness runs the paper's experiments end to end: it simulates
// a workload on the DSM machine once, records per-interval signatures,
// then sweeps classification thresholds offline to produce the CoV
// curves of Figures 2 and 4.
//
// The package is layered, bottom up:
//
//   - The engine (engine.go): RunPlan executes a Plan of independent
//     Cells over a bounded worker pool. Its unit of work is one distinct
//     simulation: a job runs the machine once, sweeps every cell that
//     shares it and drops it, so at most one machine per worker is
//     resident. Errors are isolated per cell and results aggregate in
//     plan order — output is independent of the worker count.
//   - The declarative surface (spec.go, report.go, encoders.go): a Spec
//     describes a grid (workloads × procs × detectors × replicates ×
//     named variants) and compiles it onto the engine; Spec.Assemble
//     aggregates plan-ordered cells into a Report of per-configuration
//     mean ± 95% CI bands, rendered by the pluggable
//     text/CSV/JSON/markdown Encoders.
//   - The tuning driver (tuning.go, tuning_encoders.go): Spec.TuningHook
//     closes the paper's detect → predict → reconfigure loop online over
//     live simulations through the engine's CellHook, and
//     Spec.AssembleTuning aggregates a replicate-banded TuningReport
//     scorecard, with its own encoder family.
//   - The grid runner (grids.go): RunGrids is the one place named grids
//     execute — whole or one hash-partitioned shard, with each grid's
//     hook installed and optional cell streaming for resume. It runs the
//     union of its grids' cells on the same engine loop, so an execution
//     several grids share simulates once. NamedGrid.Encoder picks each
//     grid's aggregation and encoder family.
//   - Cross-machine sharding (shard.go, stream.go): a shard's results
//     serialize as a versioned JSON shard artifact (docs/MERGE_FORMAT.md);
//     MergeShards validates a complete shard set and reassembles the
//     plan-ordered results so Assemble/AssembleTuning reproduce the
//     unsharded report byte for byte.
//
// Everything above the simulator is a pure function of deterministic
// inputs — seeds derive order-free via DeriveSeed, aggregation is in
// plan order, encoders never emit wall-clock fields — which is what
// makes parallel == serial and sharded == unsharded exact, testable
// guarantees rather than aspirations.
package harness

import (
	"fmt"
	"io"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// RunConfig describes one simulation.
type RunConfig struct {
	// Workload is the Table II application name.
	Workload string
	// Size selects the input scale.
	Size workloads.Size
	// Procs is the node count.
	Procs int
	// IntervalInstructions overrides the sampling interval; 0 keeps the
	// paper's 3M/Procs.
	IntervalInstructions uint64
	// Seed drives workload pseudo-randomness.
	Seed uint64
	// Protocol selects the coherence backend (the zero value is the
	// directory engine, preserving pre-seam behavior).
	Protocol coherence.Kind
	// Tweak, if non-nil, may adjust the machine configuration before the
	// run (used by ablation benchmarks). It runs after Protocol is
	// applied, so a tweak can still override the backend.
	Tweak func(*machine.Config)
}

// Simulate builds the machine, runs the workload to completion and
// returns the machine (whose records feed the sweeps) plus the summary.
// The machine is released when its run ends, failed or not: its caches
// go back to the pool the next simulation draws from, so a returned
// machine carries its records, network, and protocol statistics
// (Protocol().Stats()), but no coherence state — it cannot run again,
// and Protocol().CheckInvariants panics. Build with machine.New to keep
// that state.
func Simulate(rc RunConfig) (*machine.Machine, machine.Summary, error) {
	w, err := workloads.ByName(rc.Workload)
	if err != nil {
		return nil, machine.Summary{}, err
	}
	cfg := machine.DefaultConfig(rc.Procs)
	if rc.IntervalInstructions > 0 {
		cfg.IntervalInstructions = rc.IntervalInstructions
	}
	cfg.Protocol = rc.Protocol
	if rc.Tweak != nil {
		rc.Tweak(&cfg)
	}
	m := machine.New(cfg, w.Threads(rc.Procs, rc.Size, rc.Seed))
	sum, err := m.Run()
	m.Release()
	if err != nil {
		return nil, machine.Summary{}, fmt.Errorf("harness: %s/%dP: %w", rc.Workload, rc.Procs, err)
	}
	return m, sum, nil
}

// SweepConfig describes one threshold sweep over recorded signatures.
type SweepConfig struct {
	// Kind selects the detector.
	Kind core.DetectorKind
	// TableSize is the footprint-table size (paper: 32).
	TableSize int
	// BBVThresholds are the Manhattan-distance thresholds to examine.
	BBVThresholds []float64
	// DDSThresholds are the DDS-difference thresholds (two-threshold
	// detectors only; ignored for DetectorBBV).
	DDSThresholds []float64
}

// DefaultBBVThresholds returns the paper's ~200 threshold values,
// geometrically spaced over the meaningful Manhattan range for
// normalized BBVs (0, 2].
func DefaultBBVThresholds(n int) []float64 {
	return stats.GeomSpace(0.004, 2.0, n)
}

// DefaultDDSThresholds returns a geometric grid of DDS-difference
// thresholds up to the maximum normalized DDS (1 + network dimension).
func DefaultDDSThresholds(n int, maxDistance float64) []float64 {
	return stats.GeomSpace(0.002, maxDistance, n)
}

// DefaultSweep builds the sweep the paper uses for the given detector:
// 200 BBV thresholds for the baseline; a 50×12 threshold grid for
// BBV+DDV (the two-threshold generalization of "two hundred threshold
// values"); 200 DDS thresholds for the DDS-only ablation.
func DefaultSweep(kind core.DetectorKind, maxDistance float64) SweepConfig {
	sc := SweepConfig{Kind: kind, TableSize: core.DefaultFootprintSize}
	switch kind {
	case core.DetectorBBV:
		sc.BBVThresholds = DefaultBBVThresholds(200)
		sc.DDSThresholds = []float64{0}
	case core.DetectorBBVDDV:
		sc.BBVThresholds = DefaultBBVThresholds(50)
		sc.DDSThresholds = DefaultDDSThresholds(12, maxDistance)
	case core.DetectorDDS:
		sc.BBVThresholds = []float64{2}
		sc.DDSThresholds = DefaultDDSThresholds(200, maxDistance)
	case core.DetectorWSS:
		// Relative signature distance lies in [0, 1].
		sc.BBVThresholds = stats.GeomSpace(0.002, 1.0, 200)
		sc.DDSThresholds = []float64{0}
	}
	return sc
}

// Sweep classifies the recorded per-processor signature sequences at
// every threshold setting. For each setting it computes each processor's
// identifier CoV and phase count, then averages them across processors
// (the paper's "system-wide CoV curve"). The returned cloud contains one
// point per threshold setting; reduce it with stats.LowerEnvelope for
// the presentation curve.
//
// The loop is processor-outer: each processor's pairwise BBV distances
// are computed once (core.Replay), so only one processor's distances are
// held at a time. A setting inside the box of settings that replay the
// same as an already computed neighbour (the previous DDS threshold, or
// the previous BBV threshold at the same DDS threshold) takes that
// neighbour's CoV and phase count; only the others are replayed. Each
// setting still sums its processors in ascending order, as a
// setting-outer loop would.
func Sweep(recs [][]core.IntervalSignature, sc SweepConfig) []stats.CurvePoint {
	out, _ := sweep(recs, sc)
	return out
}

// sweepResult is one processor's outcome at one setting, with the box
// of settings that replay to the same IDs.
type sweepResult struct {
	box    core.Box
	cov    float64
	phases int
}

// sweep is Sweep, also returning the number of (processor, setting)
// replays it ran.
func sweep(recs [][]core.IntervalSignature, sc SweepConfig) ([]stats.CurvePoint, int) {
	if sc.TableSize <= 0 {
		sc.TableSize = core.DefaultFootprintSize
	}
	dds := sc.DDSThresholds
	if sc.Kind == core.DetectorBBV || sc.Kind == core.DetectorWSS || len(dds) == 0 {
		dds = []float64{0}
	}
	// Each point sums its setting's per-processor CoV and phase count
	// until the average at the end. Setting k is (BBV threshold k/cols,
	// DDS threshold k%cols).
	cols := len(dds)
	out := make([]stats.CurvePoint, 0, len(sc.BBVThresholds)*cols)
	for _, tb := range sc.BBVThresholds {
		for _, td := range dds {
			out = append(out, stats.CurvePoint{Threshold: tb, ThresholdDDS: td})
		}
	}
	procs, replays := 0, 0
	var scratch stats.CoVScratch
	var cpis []float64
	res := make([]sweepResult, len(out))
	for _, rs := range recs {
		if len(rs) == 0 {
			continue
		}
		procs++
		cpis = cpis[:0]
		for _, r := range rs {
			cpis = append(cpis, r.CPI())
		}
		// The WSS baseline replays its own table and reports no box.
		classify := func(tb, _ float64) ([]int, core.Box) {
			return core.ClassifyRecordedWSS(sc.TableSize, tb, rs), core.Box{}
		}
		if sc.Kind != core.DetectorWSS {
			replay := core.NewReplay(rs, sc.TableSize)
			classify = func(tb, td float64) ([]int, core.Box) { return replay.Classify(sc.Kind, tb, td) }
		}
		for k := range out {
			tb, td := out[k].Threshold, out[k].ThresholdDDS
			switch {
			case k%cols > 0 && res[k-1].box.Contains(tb, td):
				res[k] = res[k-1]
			case k >= cols && res[k-cols].box.Contains(tb, td):
				res[k] = res[k-cols]
			default:
				ids, box := classify(tb, td)
				cov, nPhases := stats.DenseIdentifierCoV(ids, cpis, &scratch)
				res[k] = sweepResult{box, cov, nPhases}
				replays++
			}
			out[k].CoV += res[k].cov
			out[k].Phases += float64(res[k].phases)
		}
	}
	if procs == 0 || len(out) == 0 {
		return nil, replays
	}
	for k := range out {
		out[k].Phases /= float64(procs)
		out[k].CoV /= float64(procs)
	}
	return out, replays
}

// CurveResult is one named curve of a figure.
type CurveResult struct {
	App      string
	Procs    int
	Detector core.DetectorKind
	// Curve is the lower envelope over the sweep's point cloud.
	Curve stats.Curve
	// Summary carries whole-run simulation statistics.
	Summary machine.Summary
}

// Label returns the curve's legend label ("lu 8P BBV+DDV").
func (c CurveResult) Label() string {
	return fmt.Sprintf("%s %dP %s", c.App, c.Procs, c.Detector)
}

// RunCurve simulates one configuration and sweeps one detector over it.
func RunCurve(rc RunConfig, kind core.DetectorKind) (CurveResult, error) {
	m, sum, err := Simulate(rc)
	if err != nil {
		return CurveResult{}, err
	}
	return SweepMachine(m, rc, kind, sum), nil
}

// SweepMachine sweeps a detector over an already-simulated machine.
func SweepMachine(m *machine.Machine, rc RunConfig, kind core.DetectorKind, sum machine.Summary) CurveResult {
	maxD := 1.0 + float64(m.Network().Diameter())
	cloud := Sweep(m.RecordsByProc(), DefaultSweep(kind, maxD))
	return CurveResult{
		App:      rc.Workload,
		Procs:    rc.Procs,
		Detector: kind,
		Curve:    stats.LowerEnvelope(cloud),
		Summary:  sum,
	}
}

// WriteCurve prints a curve as "phases cov threshold" rows.
func WriteCurve(w io.Writer, c CurveResult) error {
	if _, err := fmt.Fprintf(w, "# %s  (intervals=%d, instrs=%d, IPC=%.3f)\n",
		c.Label(), c.Summary.Intervals, c.Summary.Instructions, c.Summary.IPC); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %-10s %-12s %-12s\n", "phases", "cov", "thBBV", "thDDS"); err != nil {
		return err
	}
	for _, p := range c.Curve.Points {
		if _, err := fmt.Fprintf(w, "%-10.2f %-10.4f %-12.5f %-12.5f\n",
			p.Phases, p.CoV, p.Threshold, p.ThresholdDDS); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteFigure prints every curve of a figure.
func WriteFigure(w io.Writer, title string, results []CurveResult) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n\n", title); err != nil {
		return err
	}
	for _, c := range results {
		if err := WriteCurve(w, c); err != nil {
			return err
		}
	}
	return nil
}

// CompareAtPhases reports, for a (BBV, BBV+DDV) curve pair, the CoV each
// achieves with at most maxPhases phases — the comparison the paper
// makes in prose ("at 25 phases, DDV reduces CoV from 29% to 15%").
func CompareAtPhases(bbv, ddv CurveResult, maxPhases float64) (bbvCoV, ddvCoV float64) {
	return bbv.Curve.CoVAt(maxPhases), ddv.Curve.CoVAt(maxPhases)
}

// CompareAtCoV reports the phase count (tuning overhead) each detector
// needs to reach the target CoV ("at 29% CoV, DDV reduces phases from 25
// to 11").
func CompareAtCoV(bbv, ddv CurveResult, targetCoV float64) (bbvPhases, ddvPhases float64) {
	return bbv.Curve.PhasesAt(targetCoV), ddv.Curve.PhasesAt(targetCoV)
}
