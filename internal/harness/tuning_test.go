package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// tuningSpec builds the small end-to-end grid the tuning tests share:
// one real simulated workload, both detectors, every predictor, one
// controller.
func tuningSpec(opts ...Option) *Spec {
	base := []Option{
		WithApps("lu"),
		WithProcs(4),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(40_000),
		WithSeed(1),
		WithControllers(ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	}
	return NewSpec(append(base, opts...)...)
}

// runTuning executes a tuning Spec as the tuning grid through RunGrids
// and aggregates its scorecard.
func runTuning(s *Spec, opts Options) (*TuningReport, error) {
	results, _, err := RunGrids([]NamedGrid{{Name: "tuning", Tuning: true, Spec: s}}, 0, 1, opts, false, nil)
	if err != nil {
		return nil, err
	}
	return s.AssembleTuning(results[0])
}

// tuningReport memoizes the shared grid run across tests.
var tuningReport = sync.OnceValue(func() *TuningReport {
	rep, err := runTuning(tuningSpec(), Options{Parallel: 4})
	if err != nil {
		panic(err)
	}
	return rep
})

// row finds a scorecard row by detector and predictor.
func row(t *testing.T, rep *TuningReport, kind core.DetectorKind, pred string) TuningConfigResult {
	t.Helper()
	for _, c := range rep.Configs {
		if c.Config.Detector == kind && c.Config.Predictor == pred {
			return c
		}
	}
	t.Fatalf("no row for %s/%s", kind, pred)
	return TuningConfigResult{}
}

// TestRunTuningEndToEnd closes the loop on a real simulation grid and
// checks the scorecard's structure and the headline ordering: a better
// predictor achieves at least the win rate of the naive last-phase
// loop, with higher prediction accuracy.
func TestRunTuningEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed tuning run")
	}
	rep := tuningReport()
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	// detectors × predictors × controllers rows, grid order.
	if want := 2 * len(rep.Predictors) * len(rep.Controllers); len(rep.Configs) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Configs), want)
	}
	for _, c := range rep.Configs {
		if len(c.Values) != rep.Replicates {
			t.Errorf("%s: %d values, want %d", c.Config.Label(), len(c.Values), rep.Replicates)
		}
		for _, v := range c.Values {
			if v.WinRate < 0 || v.WinRate > 1 {
				t.Errorf("%s: win rate %v out of range", c.Config.Label(), v.WinRate)
			}
			if v.Overhead < 0 || v.Overhead > 1 {
				t.Errorf("%s: overhead %v out of range", c.Config.Label(), v.Overhead)
			}
			if v.Accuracy < 0 || v.Accuracy > 1 {
				t.Errorf("%s: accuracy %v out of range", c.Config.Label(), v.Accuracy)
			}
			if v.Regret < 0 {
				t.Errorf("%s: negative regret %v — the loop beat the oracle", c.Config.Label(), v.Regret)
			}
			if v.Convergence < 0 {
				t.Errorf("%s: negative convergence %v", c.Config.Label(), v.Convergence)
			}
		}
	}
	for _, kind := range []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV} {
		last := row(t, rep, kind, "last-phase")
		markov := row(t, rep, kind, "markov")
		if markov.WinRate.Mean < last.WinRate.Mean {
			t.Errorf("%s: markov win rate %v below last-phase %v",
				kind, markov.WinRate.Mean, last.WinRate.Mean)
		}
		if markov.Accuracy.Mean < last.Accuracy.Mean {
			t.Errorf("%s: markov accuracy %v below last-phase %v",
				kind, markov.Accuracy.Mean, last.Accuracy.Mean)
		}
	}
}

// TestRunTuningDeterministic pins the engine-hook path's worker-count
// independence: the serial and parallel scorecards must be
// byte-identical in every encoder format.
func TestRunTuningDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed tuning run")
	}
	serial, err := runTuning(tuningSpec(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runTuning(tuningSpec(), Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range TuningEncoderNames() {
		enc, err := NewTuningEncoder(name, "determinism")
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := enc.Encode(&a, serial); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&b, parallel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s scorecard differs between -parallel 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, a.String(), b.String())
		}
	}
}

// TestRunTuningValidation checks RunGrids rejects unknown predictors
// and degenerate controllers before any simulation runs.
func TestRunTuningValidation(t *testing.T) {
	if _, err := runTuning(tuningSpec(WithPredictors("psychic")), Options{}); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, err := runTuning(tuningSpec(WithControllers(ControllerSpec{Name: "zero"})), Options{}); err == nil {
		t.Error("zero-trial controller accepted")
	}
}

// TestRunTuningIsolatesFailedCells checks a failing workload reports
// per-row errors without sinking the run.
func TestRunTuningIsolatesFailedCells(t *testing.T) {
	rep, err := runTuning(NewSpec(
		WithApps("nope"),
		WithProcs(2),
		WithSize(workloads.SizeTest),
		WithPredictors("last-phase"),
		WithControllers(ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstError(); err == nil {
		t.Fatal("failed workload produced no row error")
	}
	for _, c := range rep.Configs {
		if len(c.Errors) == 0 {
			t.Errorf("%s: no error recorded", c.Config.Label())
		}
		if len(c.Values) != 0 {
			t.Errorf("%s: values from a failed cell", c.Config.Label())
		}
	}
	var md bytes.Buffer
	enc, _ := NewTuningEncoder("markdown", "failures")
	if err := enc.Encode(&md, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "failed `nope") {
		t.Errorf("markdown scorecard does not surface the failure:\n%s", md.String())
	}
	// The CSV long form must not render failed rows as zero metrics —
	// empty fields with n=0 keep them distinguishable from a real 0%.
	var csv bytes.Buffer
	enc, _ = NewTuningEncoder("csv", "failures")
	if err := enc.Encode(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "nope,2,BBV,last-phase,trial-1,,,,,,,,,,,0\n") {
		t.Errorf("csv scorecard renders failed rows wrong:\n%s", csv.String())
	}
}

// TestOperatingPoint checks threshold selection within a phase budget.
func TestOperatingPoint(t *testing.T) {
	c := stats.Curve{Points: []stats.CurvePoint{
		{Phases: 2, CoV: 0.5, Threshold: 0.8, ThresholdDDS: 0.1},
		{Phases: 6, CoV: 0.2, Threshold: 0.4, ThresholdDDS: 0.2},
		{Phases: 20, CoV: 0.05, Threshold: 0.1, ThresholdDDS: 0.3},
	}}
	if thB, thD := OperatingPoint(c, 8); thB != 0.4 || thD != 0.2 {
		t.Errorf("OperatingPoint(budget=8) = (%v, %v), want (0.4, 0.2)", thB, thD)
	}
	if thB, thD := OperatingPoint(c, 100); thB != 0.1 || thD != 0.3 {
		t.Errorf("OperatingPoint(budget=100) = (%v, %v), want (0.1, 0.3)", thB, thD)
	}
	// No point within budget: the single-phase fallback.
	if thB, thD := OperatingPoint(c, 1); thB != 2.0 || thD != 0 {
		t.Errorf("OperatingPoint(budget=1) = (%v, %v), want (2, 0)", thB, thD)
	}
}

// TestTuningCosts pins the cost model's shape: one row per hardware
// setting, and the per-interval minimum goes to the setting whose
// target is nearest the interval's normalized DDS.
func TestTuningCosts(t *testing.T) {
	recs := []core.IntervalSignature{
		{DDS: 0.0, Instructions: 100, Cycles: 200},
		{DDS: 0.5, Instructions: 100, Cycles: 200},
		{DDS: 1.0, Instructions: 100, Cycles: 200},
	}
	costs := TuningCosts(recs)
	if len(costs) != TuningHardwareConfigs {
		t.Fatalf("%d cost rows, want %d", len(costs), TuningHardwareConfigs)
	}
	// Empty input keeps the shape instead of panicking (the facade
	// exports TuningCosts, so callers may hand it an idle processor).
	empty := TuningCosts(nil)
	if len(empty) != TuningHardwareConfigs || len(empty[0]) != 0 {
		t.Errorf("TuningCosts(nil) shape = %d×%d", len(empty), len(empty[0]))
	}
	// Interval 0 is local-heavy (z=0): conservative (config 0) wins.
	// Interval 1 is balanced (z=0.5): config 1. Interval 2: config 2.
	for i, want := range []int{0, 1, 2} {
		best := 0
		for c := 1; c < len(costs); c++ {
			if costs[c][i] < costs[best][i] {
				best = c
			}
		}
		if best != want {
			t.Errorf("interval %d: best config %d, want %d", i, best, want)
		}
	}
}
