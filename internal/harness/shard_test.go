package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// shardSpec is the small multi-replicate ablation grid the shard tests
// partition: 2 variants × 1 app × 1 proc count × 2 detectors × 2
// replicates = 8 cells over 4 distinct simulations.
func shardSpec() *Spec {
	return NewSpec(
		WithApps("fmm"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(2),
		WithTweak("uniform-distance", "uniformD",
			func(c *machine.Config) { c.UniformDistance = true }),
	)
}

// shardTuningSpec is the tuning-grid analogue.
func shardTuningSpec() *Spec {
	return NewSpec(
		WithApps("fmm"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(2),
		WithPredictors("last-phase", "markov"),
		WithControllers(ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	)
}

// TestShardPartition checks the partitioning invariants: every cell in
// exactly one shard, assignment stable across calls, and sibling cells
// sharing a simulation always co-located (one simulation per execution
// survives sharding).
func TestShardPartition(t *testing.T) {
	p := shardSpec().Plan()
	for of := 1; of <= 5; of++ {
		seen := make(map[int]int)
		for shard := 0; shard < of; shard++ {
			idxs := p.ShardIndices(shard, of)
			again := p.ShardIndices(shard, of)
			if fmt.Sprint(idxs) != fmt.Sprint(again) {
				t.Fatalf("of=%d shard=%d: unstable assignment %v vs %v", of, shard, idxs, again)
			}
			for _, i := range idxs {
				if prev, dup := seen[i]; dup {
					t.Errorf("of=%d: cell %d in shards %d and %d", of, i, prev, shard)
				}
				seen[i] = shard
			}
		}
		if len(seen) != p.Len() {
			t.Errorf("of=%d: %d of %d cells assigned", of, len(seen), p.Len())
		}
		// Sibling cells (same simulation, different detector) co-locate.
		cells := p.Cells()
		for i, a := range cells {
			for j, b := range cells {
				if i < j && a.simKeyAt(i) == b.simKeyAt(j) && seen[i] != seen[j] {
					t.Errorf("of=%d: cells %d and %d share a simulation but land on shards %d and %d",
						of, i, j, seen[i], seen[j])
				}
			}
		}
	}
}

// TestShardIndicesOrderFree checks that a cell's shard does not depend
// on what else is in the plan: the grid with an extra variant assigns
// the common cells identically.
func TestShardIndicesOrderFree(t *testing.T) {
	small := NewSpec(WithApps("fmm"), WithProcs(2), WithSize(workloads.SizeTest),
		WithInterval(20_000)).Plan()
	big := NewSpec(WithApps("fmm", "lu"), WithProcs(2, 8), WithSize(workloads.SizeTest),
		WithInterval(20_000)).Plan()
	const of = 3
	shardByKey := func(p *Plan) map[simKey]int {
		m := make(map[simKey]int)
		for shard := 0; shard < of; shard++ {
			for _, i := range p.ShardIndices(shard, of) {
				m[p.Cells()[i].simKeyAt(i)] = shard
			}
		}
		return m
	}
	smallMap, bigMap := shardByKey(small), shardByKey(big)
	for k, s := range smallMap {
		if bigMap[k] != s {
			t.Errorf("cell %+v: shard %d in small grid, %d in big grid", k, s, bigMap[k])
		}
	}
}

// encodeAll renders a report in every registered format.
func encodeAll(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range EncoderNames() {
		enc, err := NewEncoder(name, "shard identity")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := enc.Encode(&buf, rep); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// encodeAllTuning renders a tuning report in every registered format.
func encodeAllTuning(t *testing.T, rep *TuningReport) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range TuningEncoderNames() {
		enc, err := NewTuningEncoder(name, "shard identity")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := enc.Encode(&buf, rep); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// roundTripArtifact pushes an artifact through its serialized form, so
// identity tests cover JSON float round-tripping, not just in-memory
// plumbing.
func roundTripArtifact(t *testing.T, a *ShardArtifact) *ShardArtifact {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadShardArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// runGrid runs shard `shard` of `of` of one grid through RunGrids.
func runGrid(t *testing.T, g NamedGrid, shard, of int, opts Options) []CellResult {
	t.Helper()
	results, _, err := RunGrids([]NamedGrid{g}, shard, of, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// shardArtifacts runs every shard of a spec (plain grid) and returns
// the serialized-and-reread artifacts.
func shardArtifacts(t *testing.T, s *Spec, of int) []*ShardArtifact {
	t.Helper()
	arts := make([]*ShardArtifact, of)
	for shard := 0; shard < of; shard++ {
		results := runGrid(t, NamedGrid{Name: "grid", Spec: s}, shard, of, Options{Parallel: 2})
		grid, err := NewShardGrid("grid", s, results, false, false)
		if err != nil {
			t.Fatal(err)
		}
		arts[shard] = roundTripArtifact(t, &ShardArtifact{
			Format: ShardFormat, Shard: shard, Of: of, Grids: []ShardGrid{grid},
		})
	}
	return arts
}

// TestMergeByteIdentity is the tentpole acceptance check: for 1-, 2-
// and 3-way shard sets, writing, reading and merging the shard
// artifacts reproduces the unsharded report byte for byte in every
// encoder format.
func TestMergeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shard runs")
	}
	spec := shardSpec()
	want := encodeAll(t, spec.Run(Options{Parallel: 4}))
	for of := 1; of <= 3; of++ {
		results, err := MergeShards(spec, "grid", shardArtifacts(t, spec, of))
		if err != nil {
			t.Fatalf("of=%d: %v", of, err)
		}
		got := encodeAll(t, spec.Assemble(results))
		for name, w := range want {
			if !bytes.Equal(got[name], w) {
				t.Errorf("of=%d: %s output differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
					of, name, w, got[name])
			}
		}
	}
}

// TestMergeTuningByteIdentity is the tuning-grid analogue: sharded
// RunGrids outputs merged through AssembleTuning must reproduce the
// unsharded scorecard byte for byte in every format.
func TestMergeTuningByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shard runs")
	}
	spec := shardTuningSpec()
	unsharded, err := runTuning(spec, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAllTuning(t, unsharded)
	for of := 1; of <= 3; of++ {
		arts := make([]*ShardArtifact, of)
		for shard := 0; shard < of; shard++ {
			results := runGrid(t, NamedGrid{Name: "tuning", Tuning: true, Spec: spec}, shard, of, Options{Parallel: 2})
			grid, err := NewShardGrid("tuning", spec, results, true, false)
			if err != nil {
				t.Fatal(err)
			}
			arts[shard] = roundTripArtifact(t, &ShardArtifact{
				Format: ShardFormat, Shard: shard, Of: of, Grids: []ShardGrid{grid},
			})
		}
		results, err := MergeShards(spec, "tuning", arts)
		if err != nil {
			t.Fatalf("of=%d: %v", of, err)
		}
		rep, err := spec.AssembleTuning(results)
		if err != nil {
			t.Fatalf("of=%d: %v", of, err)
		}
		got := encodeAllTuning(t, rep)
		for name, w := range want {
			if !bytes.Equal(got[name], w) {
				t.Errorf("of=%d: %s scorecard differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
					of, name, w, got[name])
			}
		}
	}
}

// TestMergeErrorCellRoundTrip checks a failed cell survives the
// artifact round trip: the merged JSON report carries the same error
// strings (and "skipped" rows) as the unsharded one.
func TestMergeErrorCellRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shard runs")
	}
	spec := NewSpec(WithApps("fmm", "no-such-app"), WithProcs(2),
		WithSize(workloads.SizeTest), WithInterval(20_000))
	want := encodeAll(t, spec.Run(Options{Parallel: 2}))
	results, err := MergeShards(spec, "grid", shardArtifacts(t, spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeAll(t, spec.Assemble(results))
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s output differs for error cells:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				name, w, got[name])
		}
	}
}

// TestMergeValidation checks the merge refuses incomplete or
// inconsistent shard sets with a useful error.
func TestMergeValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shard runs")
	}
	spec := NewSpec(WithApps("fmm"), WithProcs(2),
		WithSize(workloads.SizeTest), WithInterval(20_000))
	arts := shardArtifacts(t, spec, 2)

	if _, err := MergeShards(spec, "grid", arts[:1]); err == nil {
		t.Error("merge accepted 1 of 2 shards")
	}
	if _, err := MergeShards(spec, "grid", []*ShardArtifact{arts[0], arts[0]}); err == nil {
		t.Error("merge accepted a duplicated shard")
	}
	if _, err := MergeShards(spec, "nope", arts); err == nil {
		t.Error("merge accepted an unknown grid name")
	}
	other := NewSpec(WithApps("fmm"), WithProcs(2),
		WithSize(workloads.SizeTest), WithInterval(20_000), WithSeed(7))
	if _, err := MergeShards(other, "grid", arts); err == nil {
		t.Error("merge accepted shards of a different plan (seed mismatch)")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch error unhelpful: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, arts[0]); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(buf.Bytes(), []byte(ShardFormat), []byte("dsmphase-shard/999"), 1)
	if _, err := ReadShardArtifact(bytes.NewReader(bad)); err == nil {
		t.Error("reader accepted an unknown format version")
	}
}

// TestTraceCaptureRoundTrip checks the optional internal/trace payload:
// a shard run under TraceHook serializes each simulation's interval
// records once (sibling cells sweeping the same execution carry a
// trace_ref, not a copy), and they round-trip through the artifact
// exactly.
func TestTraceCaptureRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed shard runs")
	}
	// Two detectors over one simulation: the second cell must reference
	// the first cell's trace rather than duplicate it.
	spec := NewSpec(WithApps("fmm"), WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest), WithInterval(20_000))
	all, _, err := RunGrids([]NamedGrid{{Name: "grid", Spec: spec}}, 0, 1, Options{Parallel: 2}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := all[0]
	grid, err := NewShardGrid("grid", spec, results, false, true)
	if err != nil {
		t.Fatal(err)
	}
	art := roundTripArtifact(t, &ShardArtifact{Shard: 0, Of: 1, Grids: []ShardGrid{grid}})
	g, _ := art.Grid("grid")
	embedded, refs := 0, 0
	for i, sc := range g.Results {
		if sc.Err != "" {
			continue
		}
		switch {
		case sc.Trace != "":
			embedded++
		case sc.TraceRef != nil:
			refs++
		default:
			t.Fatalf("cell %d: neither trace nor trace_ref", sc.Index)
		}
		got, err := g.TraceFor(sc.Index)
		if err != nil {
			t.Fatal(err)
		}
		want := results[i].Extra.(TracedExtra).Records
		if len(got) != len(want) {
			t.Fatalf("cell %d: %d procs decoded, want %d", sc.Index, len(got), len(want))
		}
		for p := range want {
			if len(got[p]) != len(want[p]) {
				t.Fatalf("cell %d proc %d: %d records, want %d", sc.Index, p, len(got[p]), len(want[p]))
			}
			for j := range want[p] {
				if got[p][j].DDS != want[p][j].DDS || got[p][j].Instructions != want[p][j].Instructions {
					t.Fatalf("cell %d proc %d record %d drifted in round trip", sc.Index, p, j)
				}
			}
		}
		// The trace wrapper must not hide the inner payload from the
		// tuning aggregation path.
		if UnwrapExtra(results[i].Extra) != nil {
			t.Fatalf("cell %d: TraceHook(nil) inner payload not nil", sc.Index)
		}
	}
	if embedded != 1 || refs != 1 {
		t.Errorf("trace dedup: %d embedded, %d refs (want 1 and 1)", embedded, refs)
	}
	// And merging trace-bearing shards still reassembles cleanly.
	if _, err := MergeShards(spec, "grid", []*ShardArtifact{art}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenShardArtifact pins the artifact schema byte for byte (with
// the one nondeterministic field, wall_ns, zeroed) and cross-checks
// that docs/MERGE_FORMAT.md documents the pinned format version.
// Regenerate with `go test ./internal/harness -run TestGolden -update`.
// TestShardArtifactRejectsUnusableTrace checks that a trace a shard
// artifact carries passes the trace reader's record checks: a cell
// whose trace changes BBV length or names a negative processor fails
// with an error instead of panicking the sweep or SplitByProc, and one
// naming a processor past the largest system fails instead of making
// SplitByProc allocate a slot per processor up to it.
func TestShardArtifactRejectsUnusableTrace(t *testing.T) {
	wss := `,"wss":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for name, tr := range map[string]string{
		"bbv length": `{"proc":0,"index":0,"bbv":[0.5,0.5]` + wss + `}` + "\n" +
			`{"proc":0,"index":1,"bbv":[1]` + wss + `}` + "\n",
		"negative proc": `{"proc":-1,"index":0,"bbv":[1]` + wss + `}` + "\n",
		"huge proc":     `{"proc":2000000000,"index":0,"bbv":[1]` + wss + `}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			ref := 0
			art := roundTripArtifact(t, &ShardArtifact{Shard: 0, Of: 1, Grids: []ShardGrid{{
				Name: "grid", Cells: 2, Results: []ShardCell{
					{Index: 0, Workload: "lu", Size: "test", Procs: 2, Detector: "BBV", Trace: tr},
					{Index: 1, Workload: "lu", Size: "test", Procs: 2, Detector: "BBV+DDV", TraceRef: &ref},
				},
			}}})
			g, _ := art.Grid("grid")
			if _, err := g.Results[0].CellResult(); err == nil || !strings.Contains(err.Error(), "cell 0 trace") {
				t.Errorf("CellResult error = %v, want the cell's trace rejected", err)
			}
			if _, err := g.TraceFor(1); err == nil || !strings.Contains(err.Error(), "trace: interval") {
				t.Errorf("TraceFor error = %v, want the referenced trace rejected", err)
			}
		})
	}
}

func TestGoldenShardArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden run")
	}
	spec := NewSpec(WithApps("fmm"), WithProcs(2), WithSize(workloads.SizeTest),
		WithInterval(20_000))
	results := runGrid(t, NamedGrid{Name: "golden", Spec: spec}, 0, 1, Options{Parallel: 2})
	for i := range results {
		results[i].Wall = 0 // the only nondeterministic field
	}
	grid, err := NewShardGrid("golden", spec, results, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteShardArtifact(&got, &ShardArtifact{Shard: 0, Of: 1, Grids: []ShardGrid{grid}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "shard.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("shard artifact drifted from %s:\n--- want ---\n%s\n--- got ---\n%s",
				path, want, got.Bytes())
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "MERGE_FORMAT.md"))
	if err != nil {
		t.Fatalf("docs/MERGE_FORMAT.md must document the shard format: %v", err)
	}
	if !strings.Contains(string(doc), ShardFormat) {
		t.Errorf("docs/MERGE_FORMAT.md does not mention the pinned format version %q — "+
			"update the doc alongside the format", ShardFormat)
	}
	if !bytes.Contains(got.Bytes(), []byte(ShardFormat)) {
		t.Errorf("artifact does not carry the format tag %q", ShardFormat)
	}
}

// TestReadShardArtifactTrailingData pins that an artifact file holds
// one artifact: a torn append or a second artifact after it is an
// error, trailing whitespace is not.
func TestReadShardArtifactTrailingData(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "shard.golden"))
	if err != nil {
		t.Fatal(err)
	}
	join := func(tail string) []byte { return append(append([]byte{}, golden...), tail...) }
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"torn append", join(`{"garbage": tru`), false},
		{"two artifacts", join(string(golden)), false},
		{"trailing newlines", join("\n\n"), true},
	} {
		_, err := ReadShardArtifact(bytes.NewReader(tc.data))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestETASeed checks the prior blend: before any completion a seeded
// ETA extrapolates from the prior alone, and the prior's weight fades
// as real completions accumulate.
func TestETASeed(t *testing.T) {
	e := NewETA().Seed(time.Second, 10)
	if _, remaining := e.Observe(0, 20); remaining <= 0 {
		t.Error("seeded ETA gave no estimate before the first completion")
	}
	// 10 virtual cells of 1s + 0 observed elapsed over 10 done cells:
	// per-cell estimate 0.5s, 10 remaining.
	if _, remaining := e.Observe(10, 20); remaining > 10*time.Second {
		t.Errorf("prior did not fade with observed completions: remaining %v", remaining)
	}
	if _, remaining := NewETA().Seed(0, 0).Observe(0, 20); remaining != 0 {
		t.Errorf("unseeded ETA estimated %v before the first completion", remaining)
	}
	// Finished and overshot runs report zero remaining.
	if _, remaining := e.Observe(20, 20); remaining != 0 {
		t.Errorf("finished run reports remaining %v", remaining)
	}
}

// TestParseShard checks the -shard flag grammar.
func TestParseShard(t *testing.T) {
	if s, of, err := ParseShard("1/3"); err != nil || s != 1 || of != 3 {
		t.Errorf("ParseShard(1/3) = %d, %d, %v", s, of, err)
	}
	for _, bad := range []string{"", "2", "3/2", "2/2", "-1/2", "a/b", "1/2/3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}
