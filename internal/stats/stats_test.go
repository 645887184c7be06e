package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 {
		t.Error("StdDev(nil) != 0")
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestCoV(t *testing.T) {
	if CoV([]float64{5, 5, 5}) != 0 {
		t.Error("CoV of constant series must be 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("CoV with zero mean must be defined as 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, stddev 2
	if got := CoV(xs); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("CoV = %v, want 0.4", got)
	}
}

func TestIdentifierCoVPerfectClassifier(t *testing.T) {
	// Each phase has perfectly homogeneous CPI -> identifier CoV 0.
	phases := []int{0, 0, 1, 1, 2}
	cpis := []float64{1.0, 1.0, 2.0, 2.0, 3.5}
	cov, n := IdentifierCoV(phases, cpis)
	if cov != 0 {
		t.Errorf("identifier CoV = %v, want 0", cov)
	}
	if n != 3 {
		t.Errorf("numPhases = %d, want 3", n)
	}
}

func TestIdentifierCoVSinglePhase(t *testing.T) {
	// All intervals in one phase: identifier CoV = CoV of the whole series.
	cpis := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	phases := make([]int, len(cpis))
	cov, n := IdentifierCoV(phases, cpis)
	if !almostEq(cov, 0.4, 1e-12) {
		t.Errorf("identifier CoV = %v, want 0.4", cov)
	}
	if n != 1 {
		t.Errorf("numPhases = %d, want 1", n)
	}
}

func TestIdentifierCoVWeighting(t *testing.T) {
	// Phase 0: 3 intervals CoV c0; phase 1: 1 interval CoV 0.
	phases := []int{0, 0, 0, 1}
	cpis := []float64{1, 2, 3, 10}
	c0 := CoV([]float64{1, 2, 3})
	want := c0 * 3 / 4
	cov, _ := IdentifierCoV(phases, cpis)
	if !almostEq(cov, want, 1e-12) {
		t.Errorf("identifier CoV = %v, want %v", cov, want)
	}
}

func TestIdentifierCoVEmpty(t *testing.T) {
	cov, n := IdentifierCoV(nil, nil)
	if cov != 0 || n != 0 {
		t.Errorf("empty = (%v,%d), want (0,0)", cov, n)
	}
}

// mapIdentifierCoV is the map-grouping form of IdentifierCoV: each
// phase's CPIs in interval order, the weighted sum in ascending ID
// order. The counting-sort grouping must reproduce it bit for bit.
func mapIdentifierCoV(phases []int, cpis []float64) (float64, int) {
	groups := make(map[int][]float64)
	var keys []int
	for i, p := range phases {
		if _, seen := groups[p]; !seen {
			keys = append(keys, p)
		}
		groups[p] = append(groups[p], cpis[i])
	}
	sort.Ints(keys)
	var weighted float64
	for _, p := range keys {
		g := groups[p]
		weighted += CoV(g) * float64(len(g)) / float64(len(phases))
	}
	return weighted, len(groups)
}

// TestIdentifierCoVMatchesMapGrouping compares both entry points with
// the map grouping using ==: dense IDs (some unused) straight through
// DenseIdentifierCoV with reused scratch, and arbitrary IDs — negative
// and far out of range — through IdentifierCoV's ranking.
func TestIdentifierCoVMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s CoVScratch
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(60)
		dense := make([]int, n)
		sparse := make([]int, n)
		cpis := make([]float64, n)
		for i := range dense {
			dense[i] = rng.Intn(1 + rng.Intn(n))
			sparse[i] = dense[i]*1000 - 7000
			cpis[i] = 0.5 + rng.Float64()*3
		}
		wantCov, wantN := mapIdentifierCoV(dense, cpis)
		if cov, k := DenseIdentifierCoV(dense, cpis, &s); cov != wantCov || k != wantN {
			t.Fatalf("dense trial %d: (%v, %d), want (%v, %d)", trial, cov, k, wantCov, wantN)
		}
		if cov, k := IdentifierCoV(sparse, cpis); cov != wantCov || k != wantN {
			t.Fatalf("ranked trial %d: (%v, %d), want (%v, %d)", trial, cov, k, wantCov, wantN)
		}
	}
}

// TestDenseIdentifierCoVAllocatesNothing guards the sweep's per-setting
// CoV: once the scratch has grown, grouping allocates nothing.
func TestDenseIdentifierCoVAllocatesNothing(t *testing.T) {
	phases := []int{0, 1, 0, 2, 1, 0, 3, 3}
	cpis := []float64{1, 2, 1.5, 3, 2.5, 1.2, 4, 4.4}
	var s CoVScratch
	DenseIdentifierCoV(phases, cpis, &s)
	if allocs := testing.AllocsPerRun(100, func() { DenseIdentifierCoV(phases, cpis, &s) }); allocs != 0 {
		t.Errorf("DenseIdentifierCoV allocated %v times per call, want 0", allocs)
	}
}

func TestIdentifierCoVMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	IdentifierCoV([]int{1}, []float64{1, 2})
}

func TestLowerEnvelope(t *testing.T) {
	pts := []CurvePoint{
		{Phases: 1, CoV: 0.9},
		{Phases: 2, CoV: 0.5},
		{Phases: 2, CoV: 0.7}, // dominated by (2,0.5)
		{Phases: 3, CoV: 0.6}, // dominated: 2 phases already achieve 0.5
		{Phases: 5, CoV: 0.2},
	}
	env := LowerEnvelope(pts)
	want := []CurvePoint{{Phases: 1, CoV: 0.9}, {Phases: 2, CoV: 0.5}, {Phases: 5, CoV: 0.2}}
	if len(env.Points) != len(want) {
		t.Fatalf("envelope has %d points, want %d: %+v", len(env.Points), len(want), env.Points)
	}
	for i, w := range want {
		if env.Points[i].Phases != w.Phases || env.Points[i].CoV != w.CoV {
			t.Errorf("point %d = %+v, want %+v", i, env.Points[i], w)
		}
	}
}

func TestLowerEnvelopeEmpty(t *testing.T) {
	if env := LowerEnvelope(nil); len(env.Points) != 0 {
		t.Error("envelope of no points must be empty")
	}
}

// Property: the lower envelope is strictly decreasing in CoV and strictly
// increasing in Phases, and every envelope point is drawn from the input.
func TestLowerEnvelopeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]CurvePoint, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, CurvePoint{
				Phases: float64(raw[i]%30) + 1,
				CoV:    float64(raw[i+1]%1000)/1000 + 0.001,
			})
		}
		env := LowerEnvelope(pts).Points
		for i := 1; i < len(env); i++ {
			if env[i].Phases <= env[i-1].Phases || env[i].CoV >= env[i-1].CoV {
				return false
			}
		}
		in := func(q CurvePoint) bool {
			for _, p := range pts {
				if p.Phases == q.Phases && p.CoV == q.CoV {
					return true
				}
			}
			return false
		}
		for _, q := range env {
			if !in(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveQueries(t *testing.T) {
	c := Curve{Points: []CurvePoint{{Phases: 1, CoV: 0.9}, {Phases: 5, CoV: 0.3}, {Phases: 10, CoV: 0.1}}}
	if got := c.CoVAt(5); got != 0.3 {
		t.Errorf("CoVAt(5) = %v, want 0.3", got)
	}
	if got := c.CoVAt(0.5); !math.IsInf(got, 1) {
		t.Errorf("CoVAt(0.5) = %v, want +Inf", got)
	}
	if got := c.PhasesAt(0.3); got != 5 {
		t.Errorf("PhasesAt(0.3) = %v, want 5", got)
	}
	if got := c.PhasesAt(0.05); !math.IsInf(got, 1) {
		t.Errorf("PhasesAt(0.05) = %v, want +Inf", got)
	}
}

func TestAverageCurves(t *testing.T) {
	a := []CurvePoint{{Phases: 2, CoV: 0.4, Threshold: 0.1}, {Phases: 4, CoV: 0.2, Threshold: 0.05}}
	b := []CurvePoint{{Phases: 4, CoV: 0.6, Threshold: 0.1}, {Phases: 8, CoV: 0.4, Threshold: 0.05}}
	avg := AverageCurves([][]CurvePoint{a, b})
	if len(avg) != 2 {
		t.Fatalf("len = %d, want 2", len(avg))
	}
	if avg[0].Phases != 3 || !almostEq(avg[0].CoV, 0.5, 1e-12) {
		t.Errorf("avg[0] = %+v, want {3 0.5}", avg[0])
	}
	if avg[1].Phases != 6 || !almostEq(avg[1].CoV, 0.3, 1e-12) {
		t.Errorf("avg[1] = %+v, want {6 0.3}", avg[1])
	}
	if avg[0].Threshold != 0.1 {
		t.Errorf("threshold not propagated: %v", avg[0].Threshold)
	}
}

func TestAverageCurvesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AverageCurves([][]CurvePoint{{{}}, {}})
}

func TestGeomSpace(t *testing.T) {
	xs := GeomSpace(0.01, 1, 200)
	if len(xs) != 200 {
		t.Fatalf("len = %d", len(xs))
	}
	if xs[0] != 0.01 || xs[199] != 1 {
		t.Errorf("endpoints = %v, %v", xs[0], xs[199])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("not strictly increasing at %d", i)
		}
	}
	// Geometric: ratio between consecutive elements is constant.
	r := xs[1] / xs[0]
	for i := 2; i < len(xs); i++ {
		if !almostEq(xs[i]/xs[i-1], r, 1e-9) {
			t.Fatalf("ratio drift at %d", i)
		}
	}
}

func TestLinSpace(t *testing.T) {
	xs := LinSpace(0, 10, 11)
	for i, x := range xs {
		if !almostEq(x, float64(i), 1e-12) {
			t.Errorf("xs[%d] = %v", i, x)
		}
	}
}

func TestSpacesPanic(t *testing.T) {
	for _, f := range []func(){
		func() { GeomSpace(0, 1, 10) },
		func() { GeomSpace(1, 2, 1) },
		func() { LinSpace(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanCI95(t *testing.T) {
	// Known case: xs = {1, 2, 3}: mean 2, sample sd 1, t(df=2) = 4.303,
	// half-width = 4.303/√3.
	mean, half := MeanCI95([]float64{1, 2, 3})
	if !almostEq(mean, 2, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	if !almostEq(half, 4.303/math.Sqrt(3), 1e-9) {
		t.Errorf("half = %v, want t·s/√n = %v", half, 4.303/math.Sqrt(3))
	}
	// Degenerate inputs collapse to the point estimate.
	if m, h := MeanCI95([]float64{7}); m != 7 || h != 0 {
		t.Errorf("single observation = (%v, %v)", m, h)
	}
	if m, h := MeanCI95(nil); m != 0 || h != 0 {
		t.Errorf("empty = (%v, %v)", m, h)
	}
	// Identical replicates have zero width whatever the count.
	if _, h := MeanCI95([]float64{3, 3, 3, 3}); h != 0 {
		t.Errorf("identical replicates half = %v", h)
	}
	// Large n falls back to the normal quantile.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2)
	}
	_, h := MeanCI95(big)
	sd := math.Sqrt(float64(len(big)) / float64(len(big)-1) * 0.25)
	if !almostEq(h, 1.960*sd/10, 1e-9) {
		t.Errorf("large-n half = %v", h)
	}
}

func TestBandAcross(t *testing.T) {
	a := Curve{Points: []CurvePoint{{Phases: 2, CoV: 0.5}, {Phases: 10, CoV: 0.2}}}
	b := Curve{Points: []CurvePoint{{Phases: 4, CoV: 0.4}, {Phases: 10, CoV: 0.3}}}
	band := BandAcross([]Curve{a, b})
	// Union grid: 2, 4, 10. At phases=2 only curve a has a point.
	if len(band.Points) != 3 {
		t.Fatalf("band has %d points, want 3", len(band.Points))
	}
	if p := band.Points[0]; p.Phases != 2 || p.N != 1 || !almostEq(p.Mean, 0.5, 1e-12) {
		t.Errorf("phases=2 point = %+v", p)
	}
	// At phases=4, a contributes its best within the budget (0.5), b 0.4.
	if p := band.Points[1]; p.N != 2 || !almostEq(p.Mean, 0.45, 1e-12) {
		t.Errorf("phases=4 point = %+v", p)
	}
	if p := band.Points[2]; p.N != 2 || !almostEq(p.Mean, 0.25, 1e-12) {
		t.Errorf("phases=10 point = %+v", p)
	}
	// Order independence: curves enter symmetrically.
	flip := BandAcross([]Curve{b, a})
	for i := range band.Points {
		if band.Points[i] != flip.Points[i] {
			t.Errorf("band depends on curve order at %d: %+v vs %+v",
				i, band.Points[i], flip.Points[i])
		}
	}
	// MeanAt/HalfAt mirror Curve.CoVAt semantics.
	if v := band.MeanAt(5); !almostEq(v, 0.45, 1e-12) {
		t.Errorf("MeanAt(5) = %v", v)
	}
	if !math.IsInf(band.MeanAt(1), 1) {
		t.Error("MeanAt below the grid must be +Inf")
	}
	if h := band.HalfAt(1); h != 0 {
		t.Errorf("HalfAt below the grid = %v", h)
	}
	if len(BandAcross(nil).Points) != 0 {
		t.Error("empty input must give an empty band")
	}
}
