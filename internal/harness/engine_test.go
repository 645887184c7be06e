package harness

import (
	"reflect"
	"sync/atomic"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// engineSpec is a small two-application grid for engine tests.
func engineSpec(procs []int, kinds ...core.DetectorKind) *Spec {
	return NewSpec(
		WithApps("lu", "fmm"),
		WithProcs(procs...),
		WithDetectors(kinds...),
		WithSize(workloads.SizeTest),
		WithInterval(40_000),
		WithSeed(1),
	)
}

// serialCurves is the pre-engine reference path: simulate each (app,
// procs) pair of gp once, app-major, and sweep every kind over it.
func serialCurves(t *testing.T, gp GridParams, procs []int, kinds ...core.DetectorKind) []CurveResult {
	t.Helper()
	var out []CurveResult
	for _, app := range ResolveApps(gp.Apps) {
		for _, p := range procs {
			rc := RunConfig{
				Workload:             app,
				Size:                 gp.Size,
				Procs:                p,
				IntervalInstructions: perProcInterval(gp.Interval, p),
				Seed:                 gp.Seed,
			}
			m, sum, err := Simulate(rc)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kinds {
				out = append(out, SweepMachine(m, rc, k, sum))
			}
		}
	}
	return out
}

// stripWall zeroes the per-cell wall-clock timings, the one CellResult
// field that legitimately differs between identical runs.
func stripWall(rs []CellResult) []CellResult {
	out := append([]CellResult(nil), rs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestRunnerMatchesSerial is the engine's core determinism contract:
// for a fixed seed the parallel runner's Figure 2 and Figure 4 results
// are identical to the serial path at every worker count.
func TestRunnerMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	for _, fig := range []struct {
		name  string
		procs []int
		kinds []core.DetectorKind
	}{
		{"figure2", []int{2, 4}, []core.DetectorKind{core.DetectorBBV}},
		{"figure4", []int{4}, []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV}},
	} {
		t.Run(fig.name, func(t *testing.T) {
			plan := engineSpec(fig.procs, fig.kinds...).Plan()
			serial := stripWall(RunPlan(plan, Options{Parallel: 1}))
			for _, workers := range []int{2, 3, 8} {
				parallel := stripWall(RunPlan(plan, Options{Parallel: workers}))
				if !reflect.DeepEqual(serial, parallel) {
					t.Errorf("results at %d workers differ from serial", workers)
				}
			}
		})
	}
}

// TestFigureMatchesLegacySerialPath pins the registry's figure4 grid
// to the pre-engine behavior: simulate each pair once, sweep each kind.
func TestFigureMatchesLegacySerialPath(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs in -short mode")
	}
	gp := GridParams{Apps: []string{"lu"}, Size: workloads.SizeTest, Interval: 40_000, Seed: 1}
	g, err := BuildGrid("figure4", gp)
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Spec.Run(Options{Parallel: 4})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	want := serialCurves(t, gp, []int{8, 32}, core.DetectorBBV, core.DetectorBBVDDV)
	if got := rep.Curves(); !reflect.DeepEqual(got, want) {
		t.Error("engine-backed figure4 differs from the hand-rolled serial path")
	}
}

// TestRunnerIsolatesFailingCell checks per-cell error isolation: a
// diverging cell reports its error without sinking sibling cells.
func TestRunnerIsolatesFailingCell(t *testing.T) {
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	bad := rc
	bad.Workload = "no-such-workload"
	plan := NewPlan().
		Add(rc, core.DetectorBBV).
		Add(bad, core.DetectorBBV).
		Add(rc, core.DetectorBBVDDV)
	results := RunPlan(plan, Options{Parallel: 3})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[1].Err == nil {
		t.Error("failing cell reported no error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("sibling cell %d sunk by failing cell: %v", i, results[i].Err)
		}
		if len(results[i].Curve.Curve.Points) == 0 {
			t.Errorf("sibling cell %d has an empty curve", i)
		}
	}
	if err := FirstError(results); err == nil {
		t.Error("FirstError missed the failure")
	}
	if got := len(Curves(results)); got != 2 {
		t.Errorf("Curves kept %d results, want 2", got)
	}
}

// TestRunnerSharesSimulations checks the engine's grouping: cells that
// agree on the simulation half run the machine exactly once.
func TestRunnerSharesSimulations(t *testing.T) {
	var sims atomic.Int32
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
		Tweak:                func(*machine.Config) { sims.Add(1) },
	}
	plan := NewPlan().
		AddCell(Cell{Run: rc, Kind: core.DetectorBBV, TweakKey: "count"}).
		AddCell(Cell{Run: rc, Kind: core.DetectorBBVDDV, TweakKey: "count"}).
		AddCell(Cell{Run: rc, Kind: core.DetectorWSS, TweakKey: "count"})
	if got := plan.Simulations(); got != 1 {
		t.Errorf("plan predicts %d simulations, want 1", got)
	}
	results := RunPlan(plan, Options{Parallel: 3})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("machine simulated %d times, want 1 (one job per simulation)", got)
	}
}

// TestRunnerDoesNotShareUnkeyedTweaks checks the engine's safety
// valve: a non-nil Tweak without a TweakKey must never be deduplicated,
// since the engine cannot compare function effects — not within a plan,
// and not across the grids of one RunGrids call, where two grids each
// hold such a cell at plan index 0.
func TestRunnerDoesNotShareUnkeyedTweaks(t *testing.T) {
	var sims atomic.Int32
	tweak := func(*machine.Config) { sims.Add(1) }
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
		Tweak:                tweak,
	}
	plan := NewPlan().Add(rc, core.DetectorBBV).Add(rc, core.DetectorBBVDDV)
	if got := plan.Simulations(); got != 2 {
		t.Errorf("plan predicts %d simulations, want 2", got)
	}
	if err := FirstError(RunPlan(plan, Options{Parallel: 2})); err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("unkeyed tweaked cells shared a simulation (%d runs, want 2)", got)
	}

	sims.Store(0)
	spec := func() *Spec {
		return NewSpec(WithApps("lu"), WithProcs(2), WithSize(workloads.SizeTest),
			WithInterval(20_000), WithTweak("unkeyed", "", tweak), WithoutBaseline())
	}
	grids := []NamedGrid{{Name: "a", Spec: spec()}, {Name: "b", Spec: spec()}}
	for _, g := range grids {
		if c := g.Spec.Plan().Cells(); len(c) != 1 || c[0].Run.Tweak == nil || c[0].TweakKey != "" {
			t.Fatalf("grid %s: want one unkeyed-tweak cell, got %+v", g.Name, c)
		}
	}
	results, _, err := RunGrids(grids, 0, 1, Options{Parallel: 1}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range results {
		if err := FirstError(rs); err != nil {
			t.Fatal(err)
		}
	}
	if got := sims.Load(); got != 2 {
		t.Errorf("unkeyed tweaked cells of two grids shared a simulation (%d runs, want 2)", got)
	}
}

// TestRunnerProgress checks that the progress callback fires once per
// cell with a monotone done counter and stable total, and that under
// one worker the cells of one simulation complete consecutively: a
// simulation's job sweeps all of its cells before the next one runs, so
// its machine is dropped before another is built.
func TestRunnerProgress(t *testing.T) {
	rc := RunConfig{
		Workload:             "lu",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	other := rc
	other.Seed = 2
	// Plan order interleaves the two simulations.
	plan := NewPlan().
		Add(rc, core.DetectorBBV).
		Add(other, core.DetectorBBV).
		Add(rc, core.DetectorBBVDDV).
		Add(other, core.DetectorBBVDDV).
		Add(rc, core.DetectorWSS)
	for _, par := range []int{1, 2} {
		var calls []int
		var seeds []uint64
		RunPlan(plan, Options{
			Parallel: par,
			Progress: func(done, total int, r CellResult) {
				if total != plan.Len() {
					t.Errorf("total = %d, want %d", total, plan.Len())
				}
				calls = append(calls, done)
				seeds = append(seeds, r.Cell.Run.Seed)
			},
		})
		if len(calls) != plan.Len() {
			t.Fatalf("parallel %d: progress fired %d times, want %d", par, len(calls), plan.Len())
		}
		for i, d := range calls {
			if d != i+1 {
				t.Errorf("parallel %d: done sequence %v not monotone 1..n", par, calls)
				break
			}
		}
		if par == 1 {
			if want := []uint64{1, 1, 1, 2, 2}; !reflect.DeepEqual(seeds, want) {
				t.Errorf("one worker completed cells of seeds %v, want %v (one simulation's cells consecutively)", seeds, want)
			}
		}
	}
}

// TestDeriveSeed checks the per-cell seeding helper: stable across
// calls, and distinct across every coordinate.
func TestDeriveSeed(t *testing.T) {
	base := DeriveSeed(1, "lu", 8, 0)
	if base != DeriveSeed(1, "lu", 8, 0) {
		t.Error("DeriveSeed is not deterministic")
	}
	variants := map[string]uint64{
		"base seed": DeriveSeed(2, "lu", 8, 0),
		"workload":  DeriveSeed(1, "fmm", 8, 0),
		"procs":     DeriveSeed(1, "lu", 16, 0),
		"replicate": DeriveSeed(1, "lu", 8, 1),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("changing %s did not change the derived seed", name)
		}
	}
}

// TestRunnerDefaultWorkerCount checks that Parallel <= 0 still runs
// every cell (the GOMAXPROCS default path).
func TestRunnerDefaultWorkerCount(t *testing.T) {
	rc := RunConfig{
		Workload:             "fmm",
		Size:                 workloads.SizeTest,
		Procs:                2,
		IntervalInstructions: 10_000,
		Seed:                 1,
	}
	results := RunPlan(NewPlan().Add(rc, core.DetectorBBV), Options{})
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("default-worker run failed: %+v", results)
	}
	if len(results[0].Curve.Curve.Points) == 0 {
		t.Error("empty curve from default-worker run")
	}
}
