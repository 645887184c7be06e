package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dsmphase"
)

// report runs the command end to end and returns its stdout.
func report(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{"-size", "test", "-interval", "40000", "-apps", "lu", "-seed", "1"}, extra...)
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
	}
	return out.String()
}

var updateWorkloadSmoke = flag.Bool("update", false, "rewrite testdata/workload_smoke.golden")

// TestWorkloadSmokeGolden runs the workload-definition front ends end to
// end: two committed DSL spec files and one ingested trace go through
// the real CLI, and the report must match the pinned golden byte for
// byte, so the DSL compiler, the trace replayer and dynamic
// registration cannot drift silently. -update re-pins the golden after
// an intentional change to the example specs or the report format.
func TestWorkloadSmokeGolden(t *testing.T) {
	example := func(parts ...string) string {
		return filepath.Join(append([]string{"..", "..", "examples"}, parts...)...)
	}
	args := []string{"-size", "test", "-interval", "16000", "-grids", "figure2",
		"-workload-file", example("adversarial_phases", "oscillate.wdl"),
		"-workload-file", example("adversarial_phases", "drift.wdl"),
		"-workload-file", example("trace_ingest", "pingpong.wdl"),
		"-apps", "oscillate,drift,pingpong"}
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
	}
	golden := filepath.Join("testdata", "workload_smoke.golden")
	if *updateWorkloadSmoke {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("workload report differs from %s (go test ./cmd/experiments -run TestWorkloadSmokeGolden -update re-pins it):\n--- want ---\n%s\n--- got ---\n%s",
			golden, want, out.String())
	}
}

// TestParallelReportByteIdentical is the determinism acceptance check:
// the markdown report must be byte-identical whatever the worker count.
func TestParallelReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	serial := report(t, "-parallel", "1")
	for _, workers := range []string{"2", "4", "8"} {
		if got := report(t, "-parallel", workers); got != serial {
			t.Errorf("-parallel %s output differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// TestReportSections checks the scorecard's shape.
func TestReportSections(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	out := report(t, "-parallel", "4")
	for _, want := range []string{
		"# Experiment report (size=test, seed=1)",
		"## Figure 2 — baseline BBV vs node count",
		"## Figure 4 — BBV vs BBV+DDV",
		"## §III-B — DDS exchange overhead",
		"| lu | 8 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "skipped") {
		t.Errorf("healthy run reported skipped cells:\n%s", out)
	}
}

// TestReportIsolatesUnknownWorkload checks that a failing cell is
// reported and skipped while the rest of the report still renders.
func TestReportIsolatesUnknownWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	var out, errOut bytes.Buffer
	args := []string{"-size", "test", "-interval", "40000", "-apps", "lu,nope", "-parallel", "4"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	s := out.String()
	if !strings.Contains(s, "skipped `nope") {
		t.Errorf("report does not mention the skipped workload:\n%s", s)
	}
	if !strings.Contains(s, "| lu | 8 |") {
		t.Errorf("healthy workload missing from report:\n%s", s)
	}
}

// TestAllCellsFailingReturnsError checks that a run producing no
// evaluation at all (every cell failed) exits non-zero whatever the
// grid selection and output format, while partial failures
// (TestReportIsolatesUnknownWorkload) still succeed.
func TestAllCellsFailingReturnsError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
		body  string // expected in the printed report
	}{
		{"scorecard", nil, "skipped `nope"},
		{"figure4-csv", []string{"-grids", "figure4", "-format", "csv"}, "variant,app,procs"},
		{"tuning-text", []string{"-grids", "tuning", "-format", "text"}, "failed: workloads: unknown workload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := append([]string{"-size", "test", "-interval", "40000", "-apps", "nope"}, tc.extra...)
			if err := run(args, &out, &errOut); err == nil || !strings.Contains(err.Error(), "every cell failed") {
				t.Errorf("all-cells-failed run returned %v, want an every-cell-failed error", err)
			}
			if !strings.Contains(out.String(), tc.body) {
				t.Errorf("report body missing %q:\n%s", tc.body, out.String())
			}
		})
	}
}

// TestBadFlagsSurfaceErrors checks flag/size validation errors return
// instead of os.Exit, keeping the command testable.
func TestBadFlagsSurfaceErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-size", "galactic"}, &out, &errOut); err == nil {
		t.Error("unknown size accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errOut); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestReplicatesAddCIColumns checks the multi-seed path: -replicates
// above 1 switches both figure tables to mean ± 95% CI form.
func TestReplicatesAddCIColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	out := report(t, "-replicates", "2", "-parallel", "4")
	for _, want := range []string{
		"| app | procs | CoV@10 | CoV@25 | ±CI@25 |",
		"| app | procs | BBV@25 | DDV@25 | gain | ±CI(DDV) |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replicated report missing %q:\n%s", want, out)
		}
	}
	// And the default single-seed report must NOT carry the CI columns.
	if single := report(t, "-parallel", "4"); strings.Contains(single, "±CI@25") {
		t.Error("single-seed report grew CI columns")
	}
}

// TestAblationScorecard checks that -ablation appends the named
// DDS-design grid as a markdown scorecard with every variant row.
func TestAblationScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	out := report(t, "-ablation", "-parallel", "4")
	for _, want := range []string{
		"## Ablation — DDS design choices",
		"| variant | app | procs | detector |",
		"| baseline | lu | 8 | BBV+DDV |",
		"| no-contention | lu | 8 | BBV+DDV |",
		"| uniform-distance | lu | 8 | BBV+DDV |",
		"| mesh-2d | lu | 8 | BBV+DDV |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report missing %q:\n%s", want, out)
		}
	}
	if report(t, "-parallel", "4") == out {
		t.Error("-ablation changed nothing")
	}
}

// TestTuningScorecard checks that -tuning appends the adaptive-tuning
// win-rate scorecard with every detector × predictor × controller row.
func TestTuningScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	out := report(t, "-tuning", "-parallel", "4")
	for _, want := range []string{
		"## Adaptive tuning — detector × predictor × controller",
		"| variant | app | procs | detector | predictor | controller | win-rate | ±CI | regret | converge | accuracy | overhead |",
		"| baseline | lu | 8 | BBV | last-phase | trial-1 |",
		"| baseline | lu | 8 | BBV | markov | trial-2 |",
		"| baseline | lu | 8 | BBV+DDV | run-length | trial-1 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tuning report missing %q:\n%s", want, out)
		}
	}
	if report(t, "-parallel", "4") == out {
		t.Error("-tuning changed nothing")
	}
}

// TestTuningScorecardDeterministic is the tuning acceptance check: the
// scorecard must be byte-identical whatever the worker count, in every
// encoder format.
func TestTuningScorecardDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	// Two formats suffice here: per-format byte identity across worker
	// counts is pinned for all four encoders by the internal harness
	// test (TestRunTuningDeterministic); this covers the cmd wiring.
	for _, format := range []string{"markdown", "json"} {
		serial := report(t, "-grids", "tuning", "-format", format, "-replicates", "2", "-parallel", "1")
		if got := report(t, "-grids", "tuning", "-format", format, "-replicates", "2", "-parallel", "8"); got != serial {
			t.Errorf("%s: -parallel 8 tuning scorecard differs from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
				format, serial, got)
		}
	}
}

// TestTuningFormatValidation checks an unknown -format surfaces as an
// error before any simulation runs, instead of a silent default.
func TestTuningFormatValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-size", "test", "-interval", "40000", "-apps", "lu",
		"-tuning", "-progress", "-format", "yaml"}
	if err := run(args, &out, &errOut); err == nil {
		t.Error("unknown format accepted")
	}
	if out.Len() != 0 || strings.Contains(errOut.String(), "eta") {
		t.Errorf("unknown format failed only after simulating:\nstdout: %s\nstderr: %s", out.String(), errOut.String())
	}
}

// TestFormatMatchesMergeAndSpec pins the -format front end: for every
// named grid and encoder, `-grids G -format F` prints the same bytes as
// the -merge of its 2-shard split and as encoder F (titled G) over a
// direct RunGrids run of BuildGrid(G), aggregated with Assemble or
// AssembleTuning.
func TestFormatMatchesMergeAndSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	gp := dsmphase.GridParams{Size: dsmphase.SizeTest, Apps: []string{"lu"}, Interval: 40_000, Seed: 1}
	for _, name := range []string{"figure2", "figure4", "ablation", "tuning"} {
		t.Run(name, func(t *testing.T) {
			g, err := dsmphase.BuildGrid(name, gp)
			if err != nil {
				t.Fatal(err)
			}
			results, _, err := dsmphase.RunGrids([]dsmphase.NamedGrid{g}, 0, 1, dsmphase.EngineOptions{Parallel: 4}, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			var rep *dsmphase.Report
			var tuningRep *dsmphase.TuningReport
			if g.Tuning {
				if tuningRep, err = g.Spec.AssembleTuning(results[0]); err != nil {
					t.Fatal(err)
				}
			} else {
				rep = g.Spec.Assemble(results[0])
			}
			files := shardFiles(t, 2, "-grids", name)
			for _, format := range dsmphase.EncoderNames() {
				var want bytes.Buffer
				if g.Tuning {
					enc, err := dsmphase.NewTuningEncoder(format, name)
					if err != nil {
						t.Fatal(err)
					}
					err = enc.Encode(&want, tuningRep)
				} else {
					enc, err := dsmphase.NewEncoder(format, name)
					if err != nil {
						t.Fatal(err)
					}
					err = enc.Encode(&want, rep)
				}
				if err != nil {
					t.Fatal(err)
				}
				flags := []string{"-grids", name, "-format", format, "-parallel", "4"}
				if got := report(t, flags...); got != want.String() {
					t.Errorf("%s: -format output differs from the encoder over RunGrids:\n--- direct ---\n%s\n--- cli ---\n%s",
						format, want.String(), got)
				}
				if got := report(t, append(append(flags, "-merge"), files...)...); got != want.String() {
					t.Errorf("%s: merged -format output differs from the encoder over RunGrids", format)
				}
			}
		})
	}
}

// TestExtendedPanelAlias checks that -apps extended expands to the
// paper panel plus ocean and radix.
func TestExtendedPanelAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	var out, errOut bytes.Buffer
	args := []string{"-size", "test", "-interval", "40000", "-apps", "extended"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
	}
	for _, app := range []string{"fmm", "lu", "equake", "art", "ocean", "radix"} {
		if !strings.Contains(out.String(), "| "+app+" | 8 |") {
			t.Errorf("extended panel missing %s", app)
		}
	}
	if strings.Contains(out.String(), "skipped") {
		t.Errorf("extended panel skipped cells:\n%s", out.String())
	}
}

// shardFiles runs the command once per shard and returns the artifact
// paths.
func shardFiles(t *testing.T, of int, extra ...string) []string {
	t.Helper()
	dir := t.TempDir()
	files := make([]string, of)
	for shard := 0; shard < of; shard++ {
		files[shard] = filepath.Join(dir, fmt.Sprintf("shard%d.json", shard))
		args := append([]string{"-size", "test", "-interval", "40000", "-apps", "lu", "-seed", "1",
			"-shard", fmt.Sprintf("%d/%d", shard, of),
			"-shard-out", files[shard]}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("shard mode with -shard-out file still wrote %d bytes to stdout", out.Len())
		}
	}
	return files
}

// TestShardMergeByteIdentity is the cross-machine acceptance check: a
// 2-way shard run plus -merge must reproduce the unsharded stdout byte
// for byte, including the ablation and tuning scorecards.
func TestShardMergeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	extra := []string{"-replicates", "2", "-ablation", "-tuning"}
	want := report(t, extra...)
	files := shardFiles(t, 2, extra...)
	args := append(append([]string{"-size", "test", "-interval", "40000", "-apps", "lu", "-seed", "1",
		"-merge"}, extra...), files...)
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
	}
	if out.String() != want {
		t.Errorf("merged report differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			want, out.String())
	}

	// A merge whose flags select fewer grids than the artifacts carry
	// must note the dropped grids on stderr instead of silently
	// discarding hours of shard work.
	args = append([]string{"-size", "test", "-interval", "40000", "-apps", "lu", "-seed", "1",
		"-replicates", "2", "-merge"}, files...)
	out.Reset()
	errOut.Reset()
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errOut.String())
	}
	for _, name := range []string{"ablation", "tuning"} {
		if !strings.Contains(errOut.String(), `"`+name+`"`) {
			t.Errorf("merge without -%s did not note the unconsumed %q grid:\n%s", name, name, errOut.String())
		}
	}
}

// TestShardDirResume reruns a finished -shard-dir shard: every cell
// must resume from the shard's cell stream, and the rewritten artifact
// must be byte-identical to the first.
func TestShardDirResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	dir := t.TempDir()
	args := []string{"-size", "test", "-interval", "40000", "-apps", "lu", "-shard", "0/2", "-shard-dir", dir}
	artifact := filepath.Join(dir, "shard_0_of_2.json")
	var out, firstLog, resumeLog bytes.Buffer
	if err := run(args, &out, &firstLog); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, firstLog.String())
	}
	first, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out, &resumeLog); err != nil {
		t.Fatalf("rerun(%v): %v (stderr: %s)", args, err, resumeLog.String())
	}
	m := regexp.MustCompile(`resumed (\d+) cells`).FindStringSubmatch(resumeLog.String())
	if m == nil || m[1] == "0" {
		t.Errorf("rerun resumed no cells; stderr:\n%s", resumeLog.String())
	}
	resumed, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, resumed) {
		t.Errorf("resumed artifact differs from the first:\n--- first ---\n%s\n--- resumed ---\n%s", first, resumed)
	}
}

// TestShardArtifactShape checks the shard artifact carries one grid per
// report section and round-trips through the public reader.
func TestShardArtifactShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	files := shardFiles(t, 1, "-tuning")
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	art, err := dsmphase.ReadShardArtifact(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure2", "figure4", "tuning"} {
		if _, ok := art.Grid(name); !ok {
			t.Errorf("artifact missing grid %q", name)
		}
	}
	if _, ok := art.Grid("ablation"); ok {
		t.Error("artifact has an ablation grid without -ablation")
	}
	if per, cells := art.MeanCellWall(); cells == 0 || per <= 0 {
		t.Errorf("artifact carries no usable timings: per=%v cells=%d", per, cells)
	}
}

// TestMergeFlagValidation checks -merge failure modes: no files, and
// artifacts from a mismatched flag set.
func TestMergeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-merge"}, &out, &errOut); err == nil {
		t.Error("-merge with no files accepted")
	}
	files := shardFiles(t, 2)
	args := append([]string{"-size", "test", "-interval", "40000", "-apps", "lu", "-seed", "2",
		"-merge"}, files...)
	if err := run(args, &out, &errOut); err == nil {
		t.Error("merge accepted shards produced under a different seed")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("mismatch error unhelpful: %v", err)
	}
	if err := run([]string{"-shard", "0/2", "-merge"}, &out, &errOut); err == nil {
		t.Error("-shard combined with -merge accepted")
	}
	if err := run([]string{"-shard", "5/2"}, &out, &errOut); err == nil {
		t.Error("out-of-range -shard accepted")
	}
}

// TestEtaFromSeedsProgress checks -eta-from accepts a prior artifact
// and the progress stream still renders ETAs.
func TestEtaFromSeedsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	files := shardFiles(t, 1)
	var out, errOut bytes.Buffer
	args := []string{"-size", "test", "-interval", "40000", "-apps", "lu",
		"-progress", "-eta-from", files[0]}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(errOut.String(), "eta") {
		t.Errorf("progress stream lost its ETA:\n%s", errOut.String())
	}
	if err := run([]string{"-eta-from", filepath.Join(t.TempDir(), "nope.json")}, &out, &errOut); err == nil {
		t.Error("missing -eta-from file accepted")
	}
}

// TestApplyPreset checks the paper preset rewrites only the flags the
// user left at their defaults.
func TestApplyPreset(t *testing.T) {
	newFS := func(args ...string) (*flag.FlagSet, *string, *uint64, *int) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		size := fs.String("size", "small", "")
		interval := fs.Uint64("interval", 0, "")
		replicates := fs.Int("replicates", 1, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs, size, interval, replicates
	}
	paper := func(size *string, interval *uint64, replicates *int) func() {
		return func() { *size, *interval, *replicates = "full", 3_000_000, 5 }
	}

	fs, size, interval, replicates := newFS()
	if err := applyPreset(fs, "paper", paper(size, interval, replicates)); err != nil {
		t.Fatal(err)
	}
	if *size != "full" || *interval != 3_000_000 || *replicates != 5 {
		t.Errorf("bare preset: size=%s interval=%d replicates=%d", *size, *interval, *replicates)
	}

	fs, size, interval, replicates = newFS("-size", "test", "-replicates", "2")
	if err := applyPreset(fs, "paper", paper(size, interval, replicates)); err != nil {
		t.Fatal(err)
	}
	if *size != "test" || *replicates != 2 {
		t.Errorf("explicit flags overridden by preset: size=%s replicates=%d", *size, *replicates)
	}
	if *interval != 3_000_000 {
		t.Errorf("unset flag not preset: interval=%d", *interval)
	}

	if err := applyPreset(fs, "galactic", func() {}); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestHelpIsNotAnError checks that -h prints the usage and exits
// cleanly instead of surfacing flag.ErrHelp as a failure.
func TestHelpIsNotAnError(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Errorf("-h returned %v", err)
	}
	if !strings.Contains(errOut.String(), "-size") {
		t.Errorf("usage not printed:\n%s", errOut.String())
	}
}
