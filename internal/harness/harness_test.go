package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// quickRun returns a small but non-trivial simulation for sweep tests.
func quickRun(t *testing.T, app string, procs int) RunConfig {
	t.Helper()
	return RunConfig{
		Workload:             app,
		Size:                 workloads.SizeTest,
		Procs:                procs,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
}

func TestSimulateUnknownWorkload(t *testing.T) {
	if _, _, err := Simulate(RunConfig{Workload: "nope", Procs: 2}); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestSimulateProducesRecords(t *testing.T) {
	m, sum, err := Simulate(quickRun(t, "lu", 2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals == 0 {
		t.Fatal("no intervals")
	}
	byProc := m.RecordsByProc()
	if len(byProc) != 2 {
		t.Fatalf("records for %d procs", len(byProc))
	}
}

func TestSweepProducesPointPerThresholdSetting(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "lu", 2))
	if err != nil {
		t.Fatal(err)
	}
	sc := SweepConfig{
		Kind:          core.DetectorBBV,
		TableSize:     32,
		BBVThresholds: []float64{0.01, 0.1, 1.0},
	}
	pts := Sweep(m.RecordsByProc(), sc)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// Larger thresholds cannot yield more phases.
	if pts[0].Phases < pts[2].Phases {
		t.Errorf("phases should not increase with threshold: %v vs %v", pts[0].Phases, pts[2].Phases)
	}
	for _, p := range pts {
		if p.Phases < 1 {
			t.Errorf("phases %v < 1", p.Phases)
		}
		if p.CoV < 0 {
			t.Errorf("negative CoV %v", p.CoV)
		}
	}
}

func TestSweepHugeThresholdSinglePhase(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "equake", 2))
	if err != nil {
		t.Fatal(err)
	}
	pts := Sweep(m.RecordsByProc(), SweepConfig{
		Kind:          core.DetectorBBV,
		BBVThresholds: []float64{2.0},
	})
	if len(pts) != 1 || pts[0].Phases != 1 {
		t.Errorf("threshold 2.0 must put everything in one phase: %+v", pts)
	}
}

func TestSweepZeroThresholdManyPhasesLowCoV(t *testing.T) {
	m, _, err := Simulate(quickRun(t, "fmm", 2))
	if err != nil {
		t.Fatal(err)
	}
	lo := Sweep(m.RecordsByProc(), SweepConfig{Kind: core.DetectorBBV, BBVThresholds: []float64{1e-9}})
	hi := Sweep(m.RecordsByProc(), SweepConfig{Kind: core.DetectorBBV, BBVThresholds: []float64{2}})
	if lo[0].Phases <= hi[0].Phases {
		t.Errorf("tiny threshold should yield more phases: %v vs %v", lo[0].Phases, hi[0].Phases)
	}
	if lo[0].CoV > hi[0].CoV {
		t.Errorf("tiny threshold should yield lower CoV: %v vs %v", lo[0].CoV, hi[0].CoV)
	}
}

func TestDefaultSweepShapes(t *testing.T) {
	bbv := DefaultSweep(core.DetectorBBV, 6)
	if len(bbv.BBVThresholds) != 200 {
		t.Errorf("BBV sweep has %d thresholds, want the paper's 200", len(bbv.BBVThresholds))
	}
	ddv := DefaultSweep(core.DetectorBBVDDV, 6)
	if len(ddv.BBVThresholds)*len(ddv.DDSThresholds) < 200 {
		t.Errorf("DDV grid too small: %d×%d", len(ddv.BBVThresholds), len(ddv.DDSThresholds))
	}
	dds := DefaultSweep(core.DetectorDDS, 6)
	if len(dds.DDSThresholds) != 200 {
		t.Errorf("DDS sweep has %d thresholds", len(dds.DDSThresholds))
	}
}

func TestRunCurveEndToEnd(t *testing.T) {
	c, err := RunCurve(quickRun(t, "art", 2), core.DetectorBBV)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Curve.Points) == 0 {
		t.Fatal("empty curve")
	}
	if c.Label() != "art 2P BBV" {
		t.Errorf("label = %q", c.Label())
	}
	// Envelope is monotone: increasing phases, decreasing CoV.
	pts := c.Curve.Points
	for i := 1; i < len(pts); i++ {
		if pts[i].Phases <= pts[i-1].Phases || pts[i].CoV >= pts[i-1].CoV {
			t.Errorf("envelope not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	run := func() []stats.CurvePoint {
		m, _, err := Simulate(quickRun(t, "lu", 4))
		if err != nil {
			t.Fatal(err)
		}
		return Sweep(m.RecordsByProc(), SweepConfig{
			Kind:          core.DetectorBBVDDV,
			BBVThresholds: []float64{0.05, 0.5},
			DDSThresholds: []float64{0.01, 0.1},
		})
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("sweep must be deterministic")
	}
}

// referenceSweep is the sweep written the direct way: for each setting,
// an online footprint table per processor fed interval by interval,
// the map-grouping IdentifierCoV, and the processor average.
func referenceSweep(recs [][]core.IntervalSignature, sc SweepConfig) []stats.CurvePoint {
	dds := sc.DDSThresholds
	if sc.Kind == core.DetectorBBV {
		dds = []float64{0}
	}
	var out []stats.CurvePoint
	for _, tb := range sc.BBVThresholds {
		for _, td := range dds {
			var sumCov, sumPhases float64
			procs := 0
			for _, rs := range recs {
				if len(rs) == 0 {
					continue
				}
				table := core.NewDetector(sc.Kind, 1, sc.TableSize, tb, td).Table
				ids := make([]int, len(rs))
				cpis := make([]float64, len(rs))
				for i, r := range rs {
					ids[i], _ = table.Classify(r.BBV, r.DDS)
					cpis[i] = r.CPI()
				}
				cov, n := stats.IdentifierCoV(ids, cpis)
				sumCov += cov
				sumPhases += float64(n)
				procs++
			}
			out = append(out, stats.CurvePoint{Phases: sumPhases / float64(procs),
				CoV: sumCov / float64(procs), Threshold: tb, ThresholdDDS: td})
		}
	}
	return out
}

// TestSweepMatchesReference checks Sweep against referenceSweep with ==
// on every float. A 4-entry table is smaller than the interval count,
// so the replay's LRU eviction is compared too.
func TestSweepMatchesReference(t *testing.T) {
	rc := quickRun(t, "lu", 8)
	rc.IntervalInstructions = 40_000 / 8
	m, _, err := Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	recs := m.RecordsByProc()
	if len(recs[0]) <= 4 {
		t.Fatalf("%d intervals on processor 0 do not overflow the table", len(recs[0]))
	}
	maxD := 1 + float64(m.Network().Diameter())
	for _, kind := range []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV, core.DetectorDDS} {
		sc := DefaultSweep(kind, maxD)
		sc.TableSize = 4
		got, want := Sweep(recs, sc), referenceSweep(recs, sc)
		if len(got) != len(want) {
			t.Fatalf("%v: %d points, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: point %d = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
}

func TestWriteCurveAndFigure(t *testing.T) {
	c, err := RunCurve(quickRun(t, "lu", 2), core.DetectorBBV)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFigure(&buf, "Fig test", []CurveResult{c}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig test", "lu 2P BBV", "phases", "cov"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareHelpers(t *testing.T) {
	bbv := CurveResult{Curve: stats.Curve{Points: []stats.CurvePoint{
		{Phases: 5, CoV: 0.4}, {Phases: 25, CoV: 0.29},
	}}}
	ddv := CurveResult{Curve: stats.Curve{Points: []stats.CurvePoint{
		{Phases: 5, CoV: 0.2}, {Phases: 11, CoV: 0.15},
	}}}
	b, d := CompareAtPhases(bbv, ddv, 25)
	if b != 0.29 || d != 0.15 {
		t.Errorf("CompareAtPhases = (%v, %v)", b, d)
	}
	bp, dp := CompareAtCoV(bbv, ddv, 0.29)
	if bp != 25 || dp != 5 {
		t.Errorf("CompareAtCoV = (%v, %v)", bp, dp)
	}
}

// figureCurves runs a registry figure grid on lu at test scale.
func figureCurves(t *testing.T, name string) []CurveResult {
	t.Helper()
	g, err := BuildGrid(name, GridParams{Apps: []string{"lu"}, Size: workloads.SizeTest, Interval: 40_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Spec.Run(Options{Parallel: 4})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	return rep.Curves()
}

func TestFigure2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	res := figureCurves(t, "figure2")
	if len(res) != 3 {
		t.Fatalf("got %d curves, want 3 (2, 8 and 32 nodes)", len(res))
	}
	for _, c := range res {
		if c.Detector != core.DetectorBBV {
			t.Errorf("unexpected detector %v", c.Detector)
		}
		if len(c.Curve.Points) == 0 {
			t.Errorf("%s: empty curve", c.Label())
		}
	}
}

func TestFigure4DDVNotWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	res := figureCurves(t, "figure4")
	if len(res) != 4 {
		t.Fatalf("got %d curves, want 4 (BBV and BBV+DDV at 8 and 32 nodes)", len(res))
	}
	for i := 0; i < len(res); i += 2 {
		bbv, ddv := res[i], res[i+1]
		if bbv.Detector != core.DetectorBBV || ddv.Detector != core.DetectorBBVDDV || bbv.Procs != ddv.Procs {
			t.Fatalf("unexpected curve order: %s, %s", bbv.Label(), ddv.Label())
		}
		// The two-threshold detector has strictly more freedom, so its best
		// CoV at a generous phase budget must not be worse.
		budget := 16.0
		b, d := CompareAtPhases(bbv, ddv, budget)
		if !math.IsInf(b, 1) && d > b*1.05 {
			t.Errorf("%dP: BBV+DDV (%v) worse than BBV (%v) at %v phases", bbv.Procs, d, b, budget)
		}
	}
}
