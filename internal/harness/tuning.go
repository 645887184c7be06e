package harness

import (
	"fmt"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/predictor"
	"dsmphase/internal/stats"
	"dsmphase/internal/tuning"
	"dsmphase/internal/workloads"
)

// The online adaptive-tuning driver: the closed-loop form of the paper's
// §II pipeline, run end to end on live simulations. For every cell of a
// Spec grid the engine simulates the workload, sweeps the detector's CoV
// curve, and — through the engine's CellHook, while the simulation is
// still resident — picks the detector's operating thresholds from that
// curve (the paper's prescription: lowest CoV within the phase budget),
// classifies each processor's recorded intervals into a live phase
// stream, and drives one tuning.AdaptiveLoop per (processor, predictor,
// controller) interval by interval through its online Step API. The
// per-interval hardware costs come from the canonical three-setting
// remote-aggressiveness model (TuningCosts). Replicates band every
// scorecard metric with 95% CIs exactly like Spec.Assemble does for
// CoV.

// DefaultPhaseBudget is the default maximum number of phases a tuning
// controller is willing to trial (see WithPhaseBudget).
const DefaultPhaseBudget = 8.0

// TuningHardwareConfigs is the number of hardware settings of the
// canonical tuning cost model: conservative, balanced and aggressive
// remote-access aggressiveness (think prefetch depth or weak-ordering
// window), targeted at the terciles of the interval DDS range.
const TuningHardwareConfigs = 3

// DefaultControllers returns the default controller axis of a tuning
// grid: one- and two-trial trial-and-error controllers.
func DefaultControllers() []ControllerSpec {
	return []ControllerSpec{
		{Name: "trial-1", TrialsPerConfig: 1},
		{Name: "trial-2", TrialsPerConfig: 2},
	}
}

// TuningCosts evaluates the canonical cost model over one processor's
// recorded intervals: costs[config][i] is interval i's objective under
// each of the TuningHardwareConfigs settings. Which setting wins depends
// on the interval's data distribution — an interval's cost rises with
// the mismatch between its normalized DDS (within the stream's observed
// range) and the setting's target level. This is exactly the variable a
// BBV cannot see: two intervals with identical code but different DDS
// need different settings, so only a DDS-aware detector hands the
// controller phases homogeneous enough to lock in the right one.
func TuningCosts(recs []core.IntervalSignature) [][]float64 {
	if len(recs) == 0 {
		costs := make([][]float64, TuningHardwareConfigs)
		for c := range costs {
			costs[c] = []float64{}
		}
		return costs
	}
	lo, hi := recs[0].DDS, recs[0].DDS
	for _, r := range recs {
		if r.DDS < lo {
			lo = r.DDS
		}
		if r.DDS > hi {
			hi = r.DDS
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	targets := []float64{1.0 / 6, 0.5, 5.0 / 6} // terciles of the DDS range
	costs := make([][]float64, len(targets))
	for c := range costs {
		costs[c] = make([]float64, len(recs))
	}
	for i, r := range recs {
		z := (r.DDS - lo) / span
		for c, t := range targets {
			mismatch := z - t
			if mismatch < 0 {
				mismatch = -mismatch
			}
			costs[c][i] = r.CPI() * (1 + 0.4*mismatch)
		}
	}
	return costs
}

// OperatingPoint picks a detector's operating thresholds from its CoV
// curve: the lowest-CoV point within the phase budget, exactly as the
// paper prescribes reading its curves. A degenerate curve (no point
// within budget) falls back to the single-phase thresholds.
func OperatingPoint(c stats.Curve, phaseBudget float64) (thBBV, thDDS float64) {
	best := stats.CurvePoint{CoV: -1}
	for _, p := range c.Points {
		if p.Phases <= phaseBudget && (best.CoV < 0 || p.CoV < best.CoV) {
			best = p
		}
	}
	if best.CoV < 0 {
		return 2.0, 0 // everything in one phase
	}
	return best.Threshold, best.ThresholdDDS
}

// TuningConfiguration identifies one row of a tuning scorecard: a grid
// Configuration crossed with a predictor and a controller.
type TuningConfiguration struct {
	Configuration
	// Predictor is the phase predictor's registry name.
	Predictor string
	// Controller is the tuning controller's spec.
	Controller ControllerSpec
}

// Label returns the row's display label
// ("lu 8P BBV+DDV markov/trial-1").
func (c TuningConfiguration) Label() string {
	return fmt.Sprintf("%s %s/%s", c.Configuration.Label(), c.Predictor, c.Controller.Name)
}

// TuningValue is one replicate's scorecard metrics, aggregated across
// the cell's per-processor adaptive loops.
type TuningValue struct {
	// WinRate is the fraction of intervals whose applied configuration
	// matched the clairvoyant per-interval best.
	WinRate float64
	// Regret is the relative cost over the clairvoyant controller.
	Regret float64
	// Convergence is the mean (across processors) interval count after
	// which every decision was a locked-in best configuration.
	Convergence float64
	// Accuracy is the phase-prediction accuracy across processors.
	Accuracy float64
	// Overhead is the fraction of intervals spent trialling.
	Overhead float64
}

// TuningMetric is one metric banded across replicates (mean ± 95% CI
// half-width over N replicate values).
type TuningMetric struct {
	Mean, Half float64
	N          int
}

// TuningConfigResult is one scorecard row: its per-replicate values and
// the replicate-banded metrics.
type TuningConfigResult struct {
	// Config identifies the row.
	Config TuningConfiguration
	// Values holds the successful replicates' metrics, replicate order.
	Values []TuningValue
	// Errors holds the failed replicate cells' errors.
	Errors []string
	// The replicate-banded scorecard columns.
	WinRate, Regret, Convergence, Accuracy, Overhead TuningMetric
}

// TuningReport is an executed tuning grid: one replicate-banded row per
// (variant, app, procs, detector, predictor, controller), in grid order
// (configuration-major, then predictor, then controller).
type TuningReport struct {
	// Size, Seed, Replicates and PhaseBudget echo the Spec.
	Size        workloads.Size
	Seed        uint64
	Replicates  int
	PhaseBudget float64
	// Predictors and Controllers echo the resolved tuning axes.
	Predictors  []string
	Controllers []ControllerSpec
	// Configs holds the scorecard rows in grid order.
	Configs []TuningConfigResult
}

// FirstError returns the first failed row's first error, or nil.
func (r *TuningReport) FirstError() error {
	for _, c := range r.Configs {
		if len(c.Errors) > 0 {
			return fmt.Errorf("%s: %s", c.Config.Label(), c.Errors[0])
		}
	}
	return nil
}

// cellTuning is the engine-hook payload: one TuningValue per
// (predictor, controller) pair, predictor-major — the same order
// AssembleTuning enumerates scorecard rows.
type cellTuning struct {
	rows []TuningValue
}

// tuningHook builds the CellHook that closes the loop for one cell; see
// the package comment at the top of this file for the dataflow.
func tuningHook(preds []string, ctls []ControllerSpec, budget float64) CellHook {
	return func(c Cell, m *machine.Machine, curve CurveResult, _ machine.Summary) any {
		thBBV, thDDS := OperatingPoint(curve.Curve, budget)
		type procStream struct {
			ids   []int
			costs [][]float64
		}
		var procs []procStream
		for _, recs := range m.RecordsByProc() {
			if len(recs) == 0 {
				continue
			}
			procs = append(procs, procStream{
				ids:   core.ClassifyRecorded(c.Kind, core.DefaultFootprintSize, thBBV, thDDS, recs),
				costs: TuningCosts(recs),
			})
		}
		ct := cellTuning{rows: make([]TuningValue, 0, len(preds)*len(ctls))}
		costs := make([]float64, TuningHardwareConfigs)
		for _, pn := range preds {
			for _, cs := range ctls {
				var (
					intervals, tuningIntervals int
					oracleMatches              int
					mispredictions, scored     int
					totalScore, oracleScore    float64
					convergence                float64
				)
				for _, ps := range procs {
					// One loop per (processor, predictor, controller):
					// predictors and controllers are stateful, and the
					// paper's mechanism is per-node.
					p, _ := predictor.ByName(pn) // names validated by TuningHook
					loop := tuning.NewAdaptiveLoop(
						tuning.NewController(TuningHardwareConfigs, cs.TrialsPerConfig), p)
					for i, actual := range ps.ids {
						for cfg := range costs {
							costs[cfg] = ps.costs[cfg][i]
						}
						loop.Step(actual, costs)
					}
					out := loop.Outcome()
					intervals += out.Intervals
					tuningIntervals += out.TuningIntervals
					oracleMatches += out.OracleMatches
					mispredictions += out.Mispredictions
					if out.Intervals > 1 {
						scored += out.Intervals - 1
					}
					totalScore += out.TotalScore
					oracleScore += out.OracleScore
					convergence += float64(out.ConvergenceInterval)
				}
				v := TuningValue{Accuracy: 1}
				if intervals > 0 {
					v.WinRate = float64(oracleMatches) / float64(intervals)
					v.Overhead = float64(tuningIntervals) / float64(intervals)
				}
				if oracleScore > 0 {
					v.Regret = (totalScore - oracleScore) / oracleScore
				}
				if scored > 0 {
					v.Accuracy = 1 - float64(mispredictions)/float64(scored)
				}
				if len(procs) > 0 {
					v.Convergence = convergence / float64(len(procs))
				}
				ct.rows = append(ct.rows, v)
			}
		}
		return ct
	}
}

// TuningHook validates the Spec's tuning axes and returns the engine
// hook that drives the online adaptive loop for every cell. RunGrids
// installs it on every tuning grid, sharded or not, so a shard worker
// computes exactly the per-cell payload the merge-side AssembleTuning
// expects.
func (s *Spec) TuningHook() (CellHook, error) {
	preds := s.Predictors()
	for _, name := range preds {
		if _, err := predictor.ByName(name); err != nil {
			return nil, err
		}
	}
	for _, c := range s.Controllers() {
		if c.TrialsPerConfig < 1 {
			return nil, fmt.Errorf("harness: controller %q needs TrialsPerConfig >= 1", c.Name)
		}
	}
	return tuningHook(preds, s.Controllers(), s.PhaseBudget()), nil
}

// AssembleTuning folds plan-ordered cell results — whose Extra payloads
// were produced by the Spec's TuningHook — into the replicate-banded
// TuningReport. Unsharded, resumed and merged shard results all flow
// through it, so they produce identical scorecard bytes in every
// format.
func (s *Spec) AssembleTuning(results []CellResult) (*TuningReport, error) {
	preds := s.Predictors()
	ctls := s.Controllers()
	configs := s.Configurations()

	rep := &TuningReport{
		Size:        s.size,
		Seed:        s.seed,
		Replicates:  s.replicates,
		PhaseBudget: s.PhaseBudget(),
		Predictors:  preds,
		Controllers: ctls,
	}
	rows := len(preds) * len(ctls)
	for i, cfg := range configs {
		// Gather the configuration's replicate cells once; every row of
		// the configuration reads a different slot of each cell's payload.
		cells := make([]CellResult, s.replicates)
		for r := 0; r < s.replicates; r++ {
			cells[r] = results[i*s.replicates+r]
		}
		for j, pn := range preds {
			for k, cs := range ctls {
				row := TuningConfigResult{Config: TuningConfiguration{
					Configuration: cfg, Predictor: pn, Controller: cs,
				}}
				for _, cell := range cells {
					if cell.Err != nil {
						row.Errors = append(row.Errors, cell.Err.Error())
						continue
					}
					ct, ok := UnwrapExtra(cell.Extra).(cellTuning)
					if !ok || len(ct.rows) != rows {
						row.Errors = append(row.Errors, "tuning hook payload missing")
						continue
					}
					row.Values = append(row.Values, ct.rows[j*len(ctls)+k])
				}
				row.WinRate = bandMetric(row.Values, func(v TuningValue) float64 { return v.WinRate })
				row.Regret = bandMetric(row.Values, func(v TuningValue) float64 { return v.Regret })
				row.Convergence = bandMetric(row.Values, func(v TuningValue) float64 { return v.Convergence })
				row.Accuracy = bandMetric(row.Values, func(v TuningValue) float64 { return v.Accuracy })
				row.Overhead = bandMetric(row.Values, func(v TuningValue) float64 { return v.Overhead })
				rep.Configs = append(rep.Configs, row)
			}
		}
	}
	return rep, nil
}

// bandMetric summarizes one metric across replicate values with
// MeanCI95.
func bandMetric(values []TuningValue, get func(TuningValue) float64) TuningMetric {
	xs := make([]float64, len(values))
	for i, v := range values {
		xs[i] = get(v)
	}
	mean, half := stats.MeanCI95(xs)
	return TuningMetric{Mean: mean, Half: half, N: len(xs)}
}
