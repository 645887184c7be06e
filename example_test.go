package dsmphase_test

import (
	"bytes"
	"fmt"

	"dsmphase"
)

// tinySpec is the seconds-scale grid the examples run: one workload,
// two processors, both detectors, deterministic seed.
func tinySpec() *dsmphase.Spec {
	return dsmphase.NewSpec(
		dsmphase.WithApps("lu"),
		dsmphase.WithProcs(2),
		dsmphase.WithDetectors(dsmphase.DetectorBBV, dsmphase.DetectorBBVDDV),
		dsmphase.WithSize(dsmphase.SizeTest),
		dsmphase.WithInterval(20_000),
	)
}

// Declare a grid, run it, and inspect the aggregated report. The
// simulator is deterministic, so the same Spec always produces the
// same Report — at any worker count.
func ExampleNewSpec() {
	report := tinySpec().Run(dsmphase.EngineOptions{Parallel: 2})
	fmt.Println("configurations:", len(report.Configs))
	for _, c := range report.Configs {
		fmt.Printf("%s: curve with %d points\n", c.Config.Label(), len(c.Band.Points))
	}
	// Output:
	// configurations: 2
	// lu 2P BBV: curve with 24 points
	// lu 2P BBV+DDV: curve with 31 points
}

// Shard named grids across workers with RunGrids and merge the
// artifacts: the merged report is byte-identical to the unsharded run
// (shard 0 of 1) in every encoder format. In production each shard
// runs on its own machine (cmd/experiments -shard i/n); here both run
// in-process.
func ExampleMergeShards() {
	grids := []dsmphase.NamedGrid{{Name: "example", Spec: tinySpec()}}
	opts := dsmphase.EngineOptions{Parallel: 2}

	// Each worker runs its deterministic partition of every grid and
	// serializes it.
	var artifacts []*dsmphase.ShardArtifact
	for shard := 0; shard < 2; shard++ {
		results, _, err := dsmphase.RunGrids(grids, shard, 2, opts, false, nil)
		if err != nil {
			fmt.Println(err)
			return
		}
		art := &dsmphase.ShardArtifact{Format: dsmphase.ShardFormat, Shard: shard, Of: 2}
		for i, g := range grids {
			grid, err := dsmphase.NewShardGrid(g.Name, g.Spec, results[i], g.Tuning, false)
			if err != nil {
				fmt.Println(err)
				return
			}
			art.Grids = append(art.Grids, grid)
		}
		var wire bytes.Buffer // stands in for the file shipped between machines
		if err := dsmphase.WriteShardArtifact(&wire, art); err != nil {
			fmt.Println(err)
			return
		}
		back, err := dsmphase.ReadShardArtifact(&wire)
		if err != nil {
			fmt.Println(err)
			return
		}
		artifacts = append(artifacts, back)
	}

	// The merge side reassembles a grid's plan-ordered results and
	// renders them through the same encoder as the unsharded run.
	g := grids[0]
	merged, err := dsmphase.MergeShards(g.Spec, g.Name, artifacts)
	if err != nil {
		fmt.Println(err)
		return
	}
	unsharded, _, err := dsmphase.RunGrids(grids, 0, 1, opts, false, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	enc, _ := g.Encoder("csv", "")
	var fromShards, direct bytes.Buffer
	enc(&fromShards, merged)
	enc(&direct, unsharded[0])
	fmt.Println("byte-identical:", bytes.Equal(fromShards.Bytes(), direct.Bytes()))
	// Output:
	// byte-identical: true
}

// Replicate seeds derive from the cell's coordinates, not from the
// enumeration order, so adding rows to a grid never changes any other
// row's seeds.
func ExampleDeriveSeed() {
	fmt.Println(dsmphase.DeriveSeed(1, "lu", 8, 1) == dsmphase.DeriveSeed(1, "lu", 8, 1))
	fmt.Println(dsmphase.DeriveSeed(1, "lu", 8, 1) == dsmphase.DeriveSeed(1, "lu", 8, 2))
	// Output:
	// true
	// false
}

// ParseShard validates a "-shard i/n" flag value.
func ExampleParseShard() {
	shard, of, err := dsmphase.ParseShard("1/4")
	fmt.Println(shard, of, err)
	_, _, err = dsmphase.ParseShard("4/4")
	fmt.Println(err != nil)
	// Output:
	// 1 4 <nil>
	// true
}

// OperatingPoint reads a CoV curve the way the paper prescribes: the
// lowest-CoV point within the phase budget.
func ExampleOperatingPoint() {
	curve := dsmphase.Curve{Points: []dsmphase.CurvePoint{
		{Phases: 4, CoV: 0.30, Threshold: 1.2, ThresholdDDS: 0.1},
		{Phases: 8, CoV: 0.10, Threshold: 0.6, ThresholdDDS: 0.2},
		{Phases: 30, CoV: 0.05, Threshold: 0.1, ThresholdDDS: 0.3},
	}}
	thBBV, thDDS := dsmphase.OperatingPoint(curve, 10) // budget excludes the 30-phase point
	fmt.Println(thBBV, thDDS)
	// Output:
	// 0.6 0.2
}
