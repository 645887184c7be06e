package harness

import (
	"time"

	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// ConfigResult is one configuration's aggregated outcome: its replicate
// cells, the successful curves, and the across-replicate confidence
// band.
type ConfigResult struct {
	// Config identifies the aggregated grid point.
	Config Configuration
	// Results holds the replicate cell results in replicate order.
	Results []CellResult
	// Curves holds the successful replicates' curves, replicate order.
	Curves []CurveResult
	// Band is the mean ± 95% CI aggregate across replicate curves
	// (a degenerate zero-width band at one replicate).
	Band stats.Band
	// Wall sums the replicates' cell wall-clock times.
	Wall time.Duration
}

// Err returns the first replicate error, or nil.
func (c ConfigResult) Err() error {
	for _, r := range c.Results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Report is an executed Spec: per-configuration aggregated curves in
// grid order, plus run metadata for the encoders.
type Report struct {
	// Size, Seed and Replicates echo the Spec.
	Size       workloads.Size
	Seed       uint64
	Replicates int
	// Configs holds one aggregated result per grid configuration, in
	// Spec enumeration order.
	Configs []ConfigResult
	// Wall is the report's total wall-clock time. It is the only field
	// that varies across identical runs; encoders must not emit it.
	Wall time.Duration
}

// Run executes the Spec as one plain grid through RunGrids (so
// opts.Hook is ignored) and aggregates the cells into
// per-configuration bands. The engine's ordered aggregation makes the
// report independent of the worker count, and DeriveSeed makes each
// configuration's band independent of the grid's enumeration order.
func (s *Spec) Run(opts Options) *Report {
	start := time.Now()
	// A plain grid run without a stream has no error path.
	results, _, _ := RunGrids([]NamedGrid{{Spec: s}}, 0, 1, opts, false, nil)
	rep := s.Assemble(results[0])
	rep.Wall = time.Since(start)
	return rep
}

// Assemble folds plan-ordered cell results into the Spec's Report —
// the aggregation half of Run, split out so merged shard results (see
// MergeShards) flow through the identical path and produce the
// identical bytes from every encoder. results must be in Spec.Plan
// order (cell index = configuration·replicates + replicate), which is
// exactly what the engine and the shard merge both guarantee.
func (s *Spec) Assemble(results []CellResult) *Report {
	configs := s.Configurations()
	rep := &Report{
		Size:       s.size,
		Seed:       s.seed,
		Replicates: s.replicates,
		Configs:    make([]ConfigResult, len(configs)),
	}
	for i, cfg := range configs {
		cr := ConfigResult{Config: cfg}
		for r := 0; r < s.replicates; r++ {
			res := results[i*s.replicates+r]
			cr.Results = append(cr.Results, res)
			cr.Wall += res.Wall
			if res.Err == nil {
				cr.Curves = append(cr.Curves, res.Curve)
			}
		}
		curves := make([]stats.Curve, len(cr.Curves))
		for j, c := range cr.Curves {
			curves[j] = c.Curve
		}
		cr.Band = stats.BandAcross(curves)
		rep.Configs[i] = cr
	}
	return rep
}

// CellResults flattens every configuration's replicate cells, in grid
// order.
func (r *Report) CellResults() []CellResult {
	var out []CellResult
	for _, c := range r.Configs {
		out = append(out, c.Results...)
	}
	return out
}

// Curves flattens every configuration's successful curves, in grid
// order — at one replicate, exactly the legacy figure result list.
func (r *Report) Curves() []CurveResult {
	var out []CurveResult
	for _, c := range r.Configs {
		out = append(out, c.Curves...)
	}
	return out
}

// FirstError returns the first failed cell's error, or nil.
func (r *Report) FirstError() error {
	for _, c := range r.Configs {
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}
