package dsmphase_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dsmphase"
)

// Facade wrapper tests: every public function must route to the correct
// internal implementation.

func TestFacadeManhattan(t *testing.T) {
	if got := dsmphase.Manhattan([]float64{1, 0}, []float64{0, 1}); got != 2 {
		t.Errorf("Manhattan = %v, want 2", got)
	}
}

func TestFacadeAccumulator(t *testing.T) {
	a := dsmphase.NewAccumulator(16)
	a.Instruction()
	a.Branch(0x40)
	if a.Total() != 2 {
		t.Errorf("Total = %d", a.Total())
	}
}

func TestFacadeComputeDDS(t *testing.T) {
	m, _, err := dsmphase.Simulate(quickRC(2))
	if err != nil {
		t.Fatal(err)
	}
	dist := m.Distance()
	raw, norm := dsmphase.ComputeDDS(0, []uint64{10, 0}, []uint64{10, 0}, dist, dsmphase.DDSOptions{})
	if raw <= 0 || norm <= 0 {
		t.Errorf("DDS = (%v, %v)", raw, norm)
	}
}

func TestFacadeIdentifierCoVAndEnvelope(t *testing.T) {
	cov, n := dsmphase.IdentifierCoV([]int{0, 0, 1}, []float64{1, 1, 2})
	if cov != 0 || n != 2 {
		t.Errorf("IdentifierCoV = (%v, %d)", cov, n)
	}
	env := dsmphase.LowerEnvelope([]dsmphase.CurvePoint{{Phases: 1, CoV: 0.5}, {Phases: 2, CoV: 0.1}})
	if len(env.Points) != 2 {
		t.Errorf("envelope has %d points", len(env.Points))
	}
}

func TestFacadeWSSSignature(t *testing.T) {
	var s dsmphase.WSSignature
	s.Touch(0x1000)
	if s.Population() != 1 {
		t.Errorf("population = %d", s.Population())
	}
}

func TestFacadeSweep(t *testing.T) {
	m, _, err := dsmphase.Simulate(quickRC(2))
	if err != nil {
		t.Fatal(err)
	}
	pts := dsmphase.Sweep(m.RecordsByProc(), dsmphase.SweepConfig{
		Kind:          dsmphase.DetectorWSS,
		BBVThresholds: []float64{0.1, 0.5},
	})
	if len(pts) != 2 {
		t.Errorf("sweep produced %d points, want 2", len(pts))
	}
}

func TestFacadeFigures(t *testing.T) {
	gp := dsmphase.GridParams{
		Apps:     []string{"lu"},
		Size:     dsmphase.SizeTest,
		Interval: 20_000,
		Seed:     1,
	}
	curves := func(name string) []dsmphase.CurveResult {
		g, err := dsmphase.BuildGrid(name, gp)
		if err != nil {
			t.Fatal(err)
		}
		rep := g.Spec.Run(dsmphase.EngineOptions{Parallel: 4})
		if err := rep.FirstError(); err != nil {
			t.Fatal(err)
		}
		return rep.Curves()
	}
	if fig2 := curves("figure2"); len(fig2) != 3 {
		t.Fatalf("figure2 = %d curves, want 3", len(fig2))
	}
	fig4 := curves("figure4")
	if len(fig4) != 4 {
		t.Fatalf("figure4 = %d curves, want 4", len(fig4))
	}
	var buf bytes.Buffer
	if err := dsmphase.WriteFigure(&buf, "t", fig4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lu 8P") {
		t.Error("figure output missing curve label")
	}
	bp, dp := dsmphase.CompareAtCoV(fig4[0], fig4[1], 0.5)
	if bp < 0 || dp < 0 {
		t.Errorf("CompareAtCoV = (%v, %v)", bp, dp)
	}
}

func TestFacadeClassifyRecordedWSSKind(t *testing.T) {
	m, _, err := dsmphase.Simulate(quickRC(2))
	if err != nil {
		t.Fatal(err)
	}
	recs := m.RecordsByProc()[0]
	ids := dsmphase.ClassifyRecorded(dsmphase.DetectorWSS, 32, 0.3, 0, recs)
	if len(ids) != len(recs) {
		t.Errorf("got %d ids for %d records", len(ids), len(recs))
	}
}

func TestFacadeAdaptiveLoop(t *testing.T) {
	phases := []int{0, 0, 1, 1, 0, 0, 1, 1}
	scores := [][]float64{
		{1, 1, 2, 2, 1, 1, 2, 2},
		{2, 2, 1, 1, 2, 2, 1, 1},
	}
	loop := dsmphase.NewAdaptiveLoop(dsmphase.NewTuningController(2, 1), dsmphase.NewLastPhasePredictor())
	out := loop.Replay(phases, scores)
	if out.Intervals != 8 {
		t.Errorf("intervals = %d", out.Intervals)
	}
	if out.PredictionAccuracy < 0 || out.PredictionAccuracy > 1 {
		t.Errorf("accuracy = %v", out.PredictionAccuracy)
	}
}

func TestFacadePredictors(t *testing.T) {
	seq := []int{0, 1, 0, 1, 0, 1}
	for _, p := range []dsmphase.Predictor{
		dsmphase.NewLastPhasePredictor(),
		dsmphase.NewMarkovPredictor(),
		dsmphase.NewRunLengthPredictor(8),
	} {
		a := dsmphase.PredictorAccuracy(p, seq)
		if a < 0 || a > 1 {
			t.Errorf("%s accuracy = %v", p.Name(), a)
		}
	}
}

// TestFacadeRunTuning exercises the public closed-loop surface: the
// predictor registry, the tuning Spec axes, a tuning grid through
// RunGrids and AssembleTuning, and a tuning encoder, end to end on a
// real tiny simulation.
func TestFacadeRunTuning(t *testing.T) {
	if _, err := dsmphase.PredictorByName("markov"); err != nil {
		t.Fatal(err)
	}
	if names := dsmphase.PredictorNames(); len(names) != 3 {
		t.Fatalf("PredictorNames = %v", names)
	}
	spec := dsmphase.NewSpec(
		dsmphase.WithApps("lu"),
		dsmphase.WithProcs(2),
		dsmphase.WithSize(dsmphase.SizeTest),
		dsmphase.WithInterval(20_000),
		dsmphase.WithPredictors("last-phase"),
		dsmphase.WithControllers(dsmphase.ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
		dsmphase.WithPhaseBudget(dsmphase.DefaultPhaseBudget),
	)
	results, _, err := dsmphase.RunGrids([]dsmphase.NamedGrid{{Name: "tuning", Tuning: true, Spec: spec}},
		0, 1, dsmphase.EngineOptions{Parallel: 2}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.AssembleTuning(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 1 {
		t.Fatalf("%d scorecard rows, want 1", len(rep.Configs))
	}
	row := rep.Configs[0]
	if row.WinRate.Mean < 0 || row.WinRate.Mean > 1 {
		t.Errorf("win rate = %v", row.WinRate.Mean)
	}
	var buf bytes.Buffer
	enc, err := dsmphase.NewTuningEncoder("markdown", "facade")
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| baseline | lu | 2 | BBV | last-phase | trial-1 |") {
		t.Errorf("scorecard row missing:\n%s", buf.String())
	}
	if len(dsmphase.TuningEncoderNames()) != 4 {
		t.Errorf("TuningEncoderNames = %v", dsmphase.TuningEncoderNames())
	}
}

// TestFacadeTuningCostModel checks the exported cost-model helpers.
func TestFacadeTuningCostModel(t *testing.T) {
	m, _, err := dsmphase.Simulate(quickRC(2))
	if err != nil {
		t.Fatal(err)
	}
	recs := m.RecordsByProc()[0]
	costs := dsmphase.TuningCosts(recs)
	if len(costs) != dsmphase.TuningHardwareConfigs {
		t.Fatalf("%d cost rows, want %d", len(costs), dsmphase.TuningHardwareConfigs)
	}
	c, err := dsmphase.RunCurve(quickRC(2), dsmphase.DetectorBBV)
	if err != nil {
		t.Fatal(err)
	}
	thBBV, _ := dsmphase.OperatingPoint(c.Curve, dsmphase.DefaultPhaseBudget)
	if thBBV <= 0 {
		t.Errorf("operating threshold = %v", thBBV)
	}
}

func TestFacadeRunCurveWSS(t *testing.T) {
	c, err := dsmphase.RunCurve(quickRC(2), dsmphase.DetectorWSS)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Curve.Points) == 0 {
		t.Error("empty WSS curve")
	}
	if !strings.Contains(c.Label(), "WSS") {
		t.Errorf("label = %q", c.Label())
	}
}

func TestFacadeOverheadScaling(t *testing.T) {
	o := dsmphase.PaperOverheadConfig()
	small, large := o, o
	small.Processors, large.Processors = 8, 32
	if small.BandwidthPerProcessor() >= large.BandwidthPerProcessor() {
		t.Error("overhead must grow with system size")
	}
	if math.Abs(o.IntervalSeconds()-0.05) > 1e-12 {
		t.Errorf("interval = %v s", o.IntervalSeconds())
	}
	if o.FractionOfController() <= 0 {
		t.Error("fraction must be positive")
	}
}

func TestFacadeDetectorKinds(t *testing.T) {
	for kind, want := range map[dsmphase.DetectorKind]string{
		dsmphase.DetectorBBV:    "BBV",
		dsmphase.DetectorBBVDDV: "BBV+DDV",
		dsmphase.DetectorDDS:    "DDS",
		dsmphase.DetectorWSS:    "WSS",
	} {
		if kind.String() != want {
			t.Errorf("kind %d = %q, want %q", kind, kind.String(), want)
		}
	}
}
