package harness

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dsmphase/internal/workloads"
)

// referenceBytes renders a grid through the reference path — RunPlan
// over the whole plan with the grid's TuningHook, then Assemble or
// AssembleTuning and the grid family's encoders — in every format.
func referenceBytes(t *testing.T, g NamedGrid, opts Options) map[string][]byte {
	t.Helper()
	if g.Tuning {
		hook, err := g.Spec.TuningHook()
		if err != nil {
			t.Fatal(err)
		}
		opts.Hook = hook
		rep, err := g.Spec.AssembleTuning(RunPlan(g.Spec.Plan(), opts))
		if err != nil {
			t.Fatal(err)
		}
		return encodeAllTuning(t, rep)
	}
	return encodeAll(t, g.Spec.Assemble(RunPlan(g.Spec.Plan(), opts)))
}

// gridBytes renders plan-ordered results through the grid's own
// encoders (NamedGrid.Encoder) in every format.
func gridBytes(t *testing.T, g NamedGrid, results []CellResult) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, format := range EncoderNames() {
		enc, err := g.Encoder(format, "shard identity")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := enc(&buf, results); err != nil {
			t.Fatal(err)
		}
		out[format] = buf.Bytes()
	}
	return out
}

// shardArtifact serializes one RunGrids shard of every grid and reads
// it back.
func shardArtifact(t *testing.T, grids []NamedGrid, shard, of int, results [][]CellResult, trace bool) *ShardArtifact {
	t.Helper()
	art := &ShardArtifact{Format: ShardFormat, Shard: shard, Of: of}
	for k, g := range grids {
		sg, err := NewShardGrid(g.Name, g.Spec, results[k], g.Tuning, trace)
		if err != nil {
			t.Fatal(err)
		}
		art.Grids = append(art.Grids, sg)
	}
	return roundTripArtifact(t, art)
}

// TestRunGridsMatchesRunPlan pins RunGrids to the reference path
// (referenceBytes) for every registry grid plus the shard tests' grids
// (replicates, a tweaked variant, tuning axes), at one and four
// workers, all grids in one RunGrids call: unsharded, as a 2-shard
// split merged with MergeShards (shard 1 capturing traces), and with
// shard 0 resumed from a half-written cell stream. Every format must
// match byte for byte.
func TestRunGridsMatchesRunPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed grid runs")
	}
	gp := GridParams{Size: workloads.SizeTest, Apps: []string{"lu"}, Interval: 40_000, Seed: 1}
	var grids []NamedGrid
	for _, name := range GridNames() {
		g, err := BuildGrid(name, gp)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	grids = append(grids,
		NamedGrid{Name: "shard", Spec: shardSpec()},
		NamedGrid{Name: "shard-tuning", Tuning: true, Spec: shardTuningSpec()})

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			opts := Options{Parallel: par}
			want := make([]map[string][]byte, len(grids))
			for k, g := range grids {
				want[k] = referenceBytes(t, g, opts)
			}
			check := func(mode string, results [][]CellResult) {
				t.Helper()
				for k, g := range grids {
					got := gridBytes(t, g, results[k])
					for format, w := range want[k] {
						if !bytes.Equal(got[format], w) {
							t.Errorf("%s %s: %s differs from the reference path:\n--- reference ---\n%s\n--- RunGrids ---\n%s",
								mode, g.Name, format, w, got[format])
						}
					}
				}
			}
			merge := func(arts []*ShardArtifact) [][]CellResult {
				t.Helper()
				out := make([][]CellResult, len(grids))
				for k, g := range grids {
					var err error
					if out[k], err = MergeShards(g.Spec, g.Name, arts); err != nil {
						t.Fatal(err)
					}
				}
				return out
			}

			unsharded, _, err := RunGrids(grids, 0, 1, opts, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("unsharded", unsharded)

			stream := filepath.Join(t.TempDir(), "shard_0_of_2.cells.jsonl")
			cs, _, err := ResumeCellStream(stream, grids, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			shard0, _, err := RunGrids(grids, 0, 2, opts, false, cs)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Close(); err != nil {
				t.Fatal(err)
			}
			shard1, _, err := RunGrids(grids, 1, 2, opts, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			arts := []*ShardArtifact{
				shardArtifact(t, grids, 0, 2, shard0, false),
				shardArtifact(t, grids, 1, 2, shard1, true),
			}
			check("2-shard merge", merge(arts))

			cells := 0
			for _, rs := range shard0 {
				cells += len(rs)
			}
			keep := cells / 2
			truncateStream(t, stream, keep)
			cs, restarted, err := ResumeCellStream(stream, grids, 0, 2)
			if err != nil || restarted {
				t.Fatalf("ResumeCellStream: restarted %v, %v", restarted, err)
			}
			ran := 0
			resumedOpts := opts
			resumedOpts.Progress = func(done, total int, r CellResult) {
				ran++
				if total != cells-keep || done > total {
					t.Errorf("progress %d/%d, want a count of %d", done, total, cells-keep)
				}
			}
			shard0, resumed, err := RunGrids(grids, 0, 2, resumedOpts, false, cs)
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Close(); err != nil {
				t.Fatal(err)
			}
			if resumed != keep || ran != cells-keep {
				t.Fatalf("resumed %d cells and ran %d, want %d and %d", resumed, ran, keep, cells-keep)
			}
			arts[0] = shardArtifact(t, grids, 0, 2, shard0, false)
			check("resumed shard", merge(arts))
		})
	}
}
