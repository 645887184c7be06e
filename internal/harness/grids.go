package harness

import (
	"fmt"
	"io"
	"sort"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/network"
	"dsmphase/internal/workloads"
)

// The named grid registry. The report's experiment grids — figure2,
// figure4, the DDS-design ablation and the adaptive-tuning scorecard —
// used to be private to cmd/experiments, which meant only that binary
// could enumerate them. The coordinator service needs the identical
// Specs on its side of the wire (it validates worker artifacts against
// the merge-side plan fingerprint), so the registry lives here and
// both the CLI and the service build grids through it: same name, same
// parameters, same fingerprint, byte-identical reports.

// GridParams are the Spec parameters every named grid shares — the
// wire-serializable subset of the Spec surface a job submission can
// carry. The zero value resolves to the CLI defaults (small inputs,
// the paper application panel, seed 1, one replicate, directory
// coherence).
type GridParams struct {
	// Size is the workload input scale.
	Size workloads.Size
	// Apps lists applications or a single panel alias; empty resolves
	// to the paper panel.
	Apps []string
	// Protocols sweeps coherence backends; empty keeps the directory
	// default.
	Protocols []coherence.Kind
	// Interval is the total sampling interval (0 = the reduced 300k
	// default).
	Interval uint64
	// Seed is the workload base seed.
	Seed uint64
	// Replicates is the seeds-per-configuration count (<1 treated as 1).
	Replicates int
}

// options compiles the shared parameters into Spec options.
func (gp GridParams) options() []Option {
	return []Option{
		WithApps(gp.Apps...),
		WithSize(gp.Size),
		WithInterval(gp.Interval),
		WithSeed(gp.Seed),
		WithReplicates(gp.Replicates),
		WithProtocols(gp.Protocols...),
	}
}

// NamedGrid is one registry entry: a grid name bound to its compiled
// Spec. Tuning marks the adaptive-tuning grid: RunGrids installs the
// Spec's TuningHook on its cells, and Encoder aggregates it with
// AssembleTuning and the TuningEncoder family instead of Assemble and
// the Report one. Nothing outside harness needs to branch on it.
type NamedGrid struct {
	Name   string
	Tuning bool
	Spec   *Spec
}

// gridBuilders maps grid names to their Spec constructors.
var gridBuilders = map[string]struct {
	tuning bool
	build  func(GridParams) *Spec
}{
	// Figure 2: baseline BBV degradation across node counts.
	"figure2": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(2, 8, 32),
			WithDetectors(core.DetectorBBV),
		)...)
	}},
	// Figure 4: BBV vs BBV+DDV on identical executions.
	"figure4": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(8, 32),
			WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		)...)
	}},
	// The DDS-design ablation: each variant disables one ingredient of
	// the data distribution scalar or swaps the network topology, all
	// TweakKey-cached so every detector sweep of a variant shares one
	// simulation.
	"ablation": {build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithProcs(8),
			WithDetectors(core.DetectorBBVDDV),
			WithTweak("no-contention", "dds-no-contention",
				func(c *machine.Config) { c.DDS.IgnoreContention = true }),
			WithTweak("uniform-distance", "uniform-distance",
				func(c *machine.Config) { c.UniformDistance = true }),
			WithTweak("mesh-2d", "mesh-2d",
				func(c *machine.Config) { c.Topology = network.KindMesh2D }),
		)...)
	}},
	// The adaptive-tuning grid: detector × predictor × controller closed
	// loop on live simulations, rendered as a win-rate scorecard.
	"tuning": {tuning: true, build: func(gp GridParams) *Spec {
		return NewSpec(append(gp.options(),
			WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		)...)
	}},
}

// GridNames returns the registered grid names, sorted.
func GridNames() []string {
	names := make([]string, 0, len(gridBuilders))
	for n := range gridBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildGrid compiles the named grid under the given parameters. The
// same (name, params) pair always yields the same plan fingerprint, on
// every machine — the property the shard merge and the coordinator's
// result cache both key on.
func BuildGrid(name string, gp GridParams) (NamedGrid, error) {
	b, ok := gridBuilders[name]
	if !ok {
		return NamedGrid{}, fmt.Errorf("harness: unknown grid %q (want one of %v)", name, GridNames())
	}
	return NamedGrid{Name: name, Tuning: b.tuning, Spec: b.build(gp)}, nil
}

// GridEncoder renders one grid's plan-ordered cell results — RunGrids'
// unsharded output, or MergeShards' — in one format.
type GridEncoder func(w io.Writer, results []CellResult) error

// Encoder returns the grid's encoder for the named format ("text",
// "csv", "json", "markdown"), titled title. A tuning grid aggregates
// with AssembleTuning and renders with the TuningEncoder family, any
// other grid with Assemble and the Report family. An unknown format
// fails here, before anything runs.
func (g NamedGrid) Encoder(format, title string) (GridEncoder, error) {
	if g.Tuning {
		enc, err := NewTuningEncoder(format, title)
		if err != nil {
			return nil, err
		}
		return func(w io.Writer, results []CellResult) error {
			rep, err := g.Spec.AssembleTuning(results)
			if err != nil {
				return err
			}
			return enc.Encode(w, rep)
		}, nil
	}
	enc, err := NewEncoder(format, title)
	if err != nil {
		return nil, err
	}
	return func(w io.Writer, results []CellResult) error {
		return enc.Encode(w, g.Spec.Assemble(results))
	}, nil
}

// RunGrids executes shard `shard` of `of` of every grid and returns
// each grid's results: results[k] holds grid k's shard cells in
// ascending plan order, each CellResult.Index its position in the
// grid's full plan. Shard 0 of 1 is the whole plan, so unsharded
// results feed a GridEncoder (or Assemble/AssembleTuning) directly;
// a shard's feed NewShardGrid.
//
// RunGrids is the one place grids execute, and it owns the engine
// hook: a tuning grid's cells get its Spec's TuningHook and the others
// none, and trace wraps either in TraceHook so every result carries
// its simulation's interval records. opts.Hook is ignored.
// opts.Progress sees one run: done and total count every cell the call
// executes, across grids. The grids run one plan after another.
//
// A non-nil cs streams every completed cell as it finishes, and the
// cells it recovered from an earlier attempt (see ResumeCellStream)
// are reused verbatim instead of run, so the results — and any
// artifact built from them — match an uninterrupted run. resumed
// counts those cells.
func RunGrids(grids []NamedGrid, shard, of int, opts Options, trace bool, cs *CellStream) (results [][]CellResult, resumed int, err error) {
	type pending struct {
		idxs   []int // the shard's plan indices
		sub    *Plan // its cells still to run
		subPos []int // sub-plan index → position in idxs
		hook   CellHook
	}
	runs := make([]pending, len(grids))
	results = make([][]CellResult, len(grids))
	total := 0
	for k, g := range grids {
		run := pending{sub: NewPlan()}
		if g.Tuning {
			if run.hook, err = g.Spec.TuningHook(); err != nil {
				return nil, 0, err
			}
		}
		if trace {
			run.hook = TraceHook(run.hook)
		}
		p := g.Spec.Plan()
		run.idxs = p.ShardIndices(shard, of)
		results[k] = make([]CellResult, len(run.idxs))
		have := make([]bool, len(run.idxs))
		if cs != nil {
			n, err := cs.resumeGrid(g.Name, p, shard, of, run.idxs, results[k], have)
			if err != nil {
				return nil, 0, err
			}
			resumed += n
		}
		for j, i := range run.idxs {
			if !have[j] {
				run.sub.AddCell(p.cells[i])
				run.subPos = append(run.subPos, j)
			}
		}
		runs[k] = run
		total += run.sub.Len()
	}
	done := 0
	for k, run := range runs {
		name := grids[k].Name
		o := opts
		o.Hook = run.hook
		o.Progress = func(d, _ int, r CellResult) {
			r.Index = run.idxs[run.subPos[r.Index]]
			if cs != nil {
				cs.appendCell(name, r)
			}
			if opts.Progress != nil {
				opts.Progress(done+d, total, r)
			}
		}
		for s, r := range RunPlan(run.sub, o) {
			j := run.subPos[s]
			r.Index = run.idxs[j]
			results[k][j] = r
		}
		done += run.sub.Len()
	}
	return results, resumed, nil
}
