package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
	"dsmphase/internal/workloads"
)

// The sharded experiment engine. A figure or study is a Plan of
// independent cells — one (workload, procs, seed, detector, tweak)
// point each — and RunPlan executes the plan across a bounded worker
// pool. Cells that share a simulation (the same execution swept by
// different detectors, as in Figure 4) are deduplicated through a
// memoizing record cache, so BBV and BBV+DDV sweeps reuse one machine
// run exactly as the serial harness did. Results are aggregated in plan
// order regardless of completion order, which — together with the
// deterministic simulator — makes the engine's output independent of
// the worker count.

// Cell is one independent experiment: simulate Run and sweep Kind's
// default threshold grid over the recorded signatures.
type Cell struct {
	// Run describes the simulation half of the cell.
	Run RunConfig
	// Kind selects the detector swept over the recording.
	Kind core.DetectorKind
	// TweakKey names Run.Tweak for the record cache. Cells whose
	// RunConfigs agree on (Workload, Size, Procs, Interval, Seed) and on
	// TweakKey share one simulation. A cell with a non-nil Tweak and an
	// empty TweakKey is never shared, because the function's effect is
	// unknown to the cache.
	TweakKey string
}

// Label returns the cell's display label ("lu 8P BBV+DDV"; a
// non-default coherence protocol appears after the processor count).
func (c Cell) Label() string {
	if c.Run.Protocol != 0 {
		return fmt.Sprintf("%s %dP %s %s", c.Run.Workload, c.Run.Procs, c.Run.Protocol, c.Kind)
	}
	return fmt.Sprintf("%s %dP %s", c.Run.Workload, c.Run.Procs, c.Kind)
}

// simKey is the record-cache identity of a cell's simulation half.
type simKey struct {
	workload string
	size     workloads.Size
	procs    int
	interval uint64
	seed     uint64
	protocol coherence.Kind
	tweak    string
}

// simKeyAt returns the cell's cache key; idx uniquifies cells whose
// Tweak cannot be identified.
func (c Cell) simKeyAt(idx int) simKey {
	k := simKey{
		workload: c.Run.Workload,
		size:     c.Run.Size,
		procs:    c.Run.Procs,
		interval: c.Run.IntervalInstructions,
		seed:     c.Run.Seed,
		protocol: c.Run.Protocol,
		tweak:    c.TweakKey,
	}
	if c.Run.Tweak != nil && c.TweakKey == "" {
		k.tweak = fmt.Sprintf("\x00uncacheable-%d", idx)
	}
	return k
}

// Plan is an ordered list of cells. Order is significant: results come
// back in plan order, so two runs of the same plan produce identical
// output whatever the worker count.
type Plan struct {
	cells []Cell
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Add appends one cell per detector kind, all sharing rc's simulation.
func (p *Plan) Add(rc RunConfig, kinds ...core.DetectorKind) *Plan {
	for _, k := range kinds {
		p.cells = append(p.cells, Cell{Run: rc, Kind: k})
	}
	return p
}

// AddCell appends a fully specified cell (needed to attach a TweakKey).
func (p *Plan) AddCell(c Cell) *Plan {
	p.cells = append(p.cells, c)
	return p
}

// Cells returns the plan's cells in order.
func (p *Plan) Cells() []Cell { return p.cells }

// Len returns the number of cells.
func (p *Plan) Len() int { return len(p.cells) }

// Simulations returns the number of distinct machine runs the record
// cache will perform for this plan (the denominator of the memoization
// saving).
func (p *Plan) Simulations() int {
	seen := make(map[simKey]bool, len(p.cells))
	for i, c := range p.cells {
		seen[c.simKeyAt(i)] = true
	}
	return len(seen)
}

// DeriveSeed deterministically mixes a base seed with a cell's identity
// and a replicate index. Multi-seed sweeps (confidence bands) must not
// seed replicates sequentially — nearby splitmix states correlate — nor
// depend on enumeration order; hashing the coordinates gives every cell
// an independent, order-free stream.
func DeriveSeed(base uint64, workload string, procs int, replicate int) uint64 {
	h := rng.Hash64(base)
	for _, b := range []byte(workload) {
		h = rng.Hash64(h ^ uint64(b))
	}
	h = rng.Hash64(h ^ uint64(procs))
	return rng.Hash64(h ^ uint64(replicate))
}

// CellResult is one cell's outcome. Err is per-cell: a diverging
// workload reports here without sinking its siblings.
type CellResult struct {
	// Index is the cell's position in the plan.
	Index int
	// Cell echoes the executed cell.
	Cell Cell
	// Curve is the swept result; zero when Err is non-nil.
	Curve CurveResult
	// Err is the cell's simulation error, if any.
	Err error
	// Wall is the cell's wall-clock time (simulation — or the wait on a
	// sibling's shared simulation — plus the sweep). It is the one field
	// that varies across identical runs; determinism comparisons must
	// ignore it and encoders must not emit it.
	Wall time.Duration
	// Extra carries the Options.Hook return value, if a hook ran; nil
	// otherwise. Report encoders never emit it — hook-derived data gets
	// its own aggregation (e.g. TuningReport).
	Extra any
}

// CellHook is the engine's extension point for computations that need
// the live simulation, not just the swept curve: it runs in the worker
// after the cell's sweep, while the cell's (possibly shared) machine is
// still resident, and its return value is stored in CellResult.Extra.
// Cells sharing one simulation run their hooks concurrently on the same
// machine, so hooks must treat it as read-only (the recorded interval
// signatures are safe to read). Hooks must be deterministic for the
// engine's output to stay worker-count independent.
type CellHook func(c Cell, m *machine.Machine, curve CurveResult, sum machine.Summary) any

// Options configures a plan run.
type Options struct {
	// Parallel bounds the worker pool; <= 0 uses runtime.GOMAXPROCS(0).
	Parallel int
	// Progress, if non-nil, is called once per completed cell, with done
	// counting completions (1..total). Calls are serialized; done is
	// monotone but cells complete in execution order, not plan order.
	Progress func(done, total int, r CellResult)
	// Hook, if non-nil, runs for every successfully swept cell while its
	// simulation is still resident; see CellHook.
	Hook CellHook
}

// simEntry memoizes one simulation shared by several cells. The first
// worker to reach the entry runs the machine; the rest block on the
// Once and then sweep the shared records (sweeps only read them). refs
// counts the cells still needing the machine: the last release drops
// it, so a long plan's peak memory is bounded by the in-flight
// simulations rather than every simulation it ever ran.
type simEntry struct {
	once sync.Once
	m    *machine.Machine
	sum  machine.Summary
	err  error

	mu   sync.Mutex
	refs int
}

func (e *simEntry) simulate(rc RunConfig) (*machine.Machine, machine.Summary, error) {
	e.once.Do(func() {
		e.m, e.sum, e.err = Simulate(rc)
	})
	return e.m, e.sum, e.err
}

// release drops one cell's claim on the machine. Callers must not use
// the returned machine after releasing.
func (e *simEntry) release() {
	e.mu.Lock()
	e.refs--
	if e.refs <= 0 {
		e.m = nil
	}
	e.mu.Unlock()
}

// RunPlan executes every cell of the plan over a bounded goroutine pool
// and returns results in plan order. It never returns early: each
// cell's error is isolated in its CellResult.
func RunPlan(p *Plan, opts Options) []CellResult {
	cells := p.Cells()
	n := len(cells)
	results := make([]CellResult, n)
	if n == 0 {
		return results
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// Dispatch first-occurrence cells of each simulation before the
	// duplicate-sweep cells: siblings sharing a simulation would only
	// block on its Once, so front-loading the distinct simulations keeps
	// every worker simulating while duplicates sweep cached records.
	sims := make(map[simKey]*simEntry, n)
	order := make([]int, 0, n)
	var dups []int
	for i, c := range cells {
		k := c.simKeyAt(i)
		if sims[k] == nil {
			sims[k] = &simEntry{}
			order = append(order, i)
		} else {
			dups = append(dups, i)
		}
		sims[k].refs++
	}
	order = append(order, dups...)

	jobs := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := cells[i]
				res := CellResult{Index: i, Cell: c}
				start := time.Now()
				e := sims[c.simKeyAt(i)]
				m, sum, err := e.simulate(c.Run)
				if err != nil {
					res.Err = err
				} else {
					res.Curve = SweepMachine(m, c.Run, c.Kind, sum)
					if opts.Hook != nil {
						res.Extra = opts.Hook(c, m, res.Curve, sum)
					}
				}
				e.release()
				res.Wall = time.Since(start)
				results[i] = res
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, n, res)
					mu.Unlock()
				}
			}
		}()
	}
	for _, i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// ETA estimates a run's remaining wall time from completed cells,
// intended for Options.Progress callbacks: feed it each completion and
// print what it returns. Cells vary widely in cost (a 32P full-size
// simulation versus a cached sweep), so the estimate is the plain
// completed-rate extrapolation — robust, monotone-improving, and free
// of per-workload modelling. Seed lets a prior run's persisted per-cell
// timings (shard artifacts carry them) stand in for the first
// completions, so long runs show a useful ETA from cell one.
type ETA struct {
	start time.Time
	// The prior: priorCells virtual completions of priorPer each, blended
	// with the observed rate and fading as real completions accumulate.
	priorPer   time.Duration
	priorCells int
}

// NewETA starts the clock.
func NewETA() *ETA { return &ETA{start: time.Now()} }

// Seed installs a prior from a previous run: cells completions averaging
// perCell each. The prior acts as that many virtual observations, so its
// weight fades as the live run accumulates real completions. Non-positive
// arguments clear the prior.
func (e *ETA) Seed(perCell time.Duration, cells int) *ETA {
	if perCell <= 0 || cells <= 0 {
		e.priorPer, e.priorCells = 0, 0
		return e
	}
	e.priorPer, e.priorCells = perCell, cells
	return e
}

// Observe reports the elapsed time and the estimated remaining time
// after done of total cells have completed. done must be ≥ 1 (with a
// seeded prior, done 0 also yields an estimate).
func (e *ETA) Observe(done, total int) (elapsed, remaining time.Duration) {
	elapsed = time.Since(e.start)
	if done >= total || done < 0 || (done == 0 && e.priorCells == 0) {
		return elapsed, 0
	}
	// Blend the prior's virtual completions with the observed ones:
	// per-cell estimate = (elapsed + prior time) / (done + prior cells).
	per := (elapsed + e.priorPer*time.Duration(e.priorCells)) /
		time.Duration(done+e.priorCells)
	return elapsed, per * time.Duration(total-done)
}

// ProgressEvent is one structured progress notification: a completed
// cell annotated with the run's ETA state. It is the single source both
// progress consumers share — the CLI printer renders it as the
// familiar "[done/total] label (cell 12ms, eta 3s)" stderr line, and
// the coordinator service streams it to clients as a server-sent JSON
// event — so the two surfaces can never drift apart.
type ProgressEvent struct {
	// Done counts completions (1..Total); Total is the plan's cell count.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Label is the completed cell's display label ("lu 8P BBV").
	Label string `json:"label,omitempty"`
	// Err is the cell's error string; empty on success.
	Err string `json:"error,omitempty"`
	// Wall is the completed cell's wall-clock time.
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Elapsed and Remaining are the run's ETA state at this completion
	// (Remaining is the blended-prior estimate; see ETA).
	Elapsed   time.Duration `json:"elapsed_ns,omitempty"`
	Remaining time.Duration `json:"remaining_ns,omitempty"`
}

// String renders the event as the canonical one-line progress form.
func (ev ProgressEvent) String() string {
	return fmt.Sprintf("[%d/%d] %s (cell %v, eta %v)", ev.Done, ev.Total, ev.Label,
		ev.Wall.Round(time.Millisecond), ev.Remaining.Round(100*time.Millisecond))
}

// EventSink consumes structured progress events. Sinks are called
// serially in completion order (the engine serializes Progress).
type EventSink func(ProgressEvent)

// ProgressEvents adapts an EventSink into an Options.Progress callback,
// annotating each completion with a fresh ETA clock seeded by the
// (perCell, cells) prior — zeros clear the prior. Use one adapter per
// RunPlan or RunGrids call so the estimator never mixes runs.
func ProgressEvents(sink EventSink, perCell time.Duration, cells int) func(done, total int, r CellResult) {
	eta := NewETA().Seed(perCell, cells)
	return func(done, total int, r CellResult) {
		elapsed, remaining := eta.Observe(done, total)
		ev := ProgressEvent{
			Done:      done,
			Total:     total,
			Label:     r.Cell.Label(),
			Wall:      r.Wall,
			Elapsed:   elapsed,
			Remaining: remaining,
		}
		if r.Err != nil {
			ev.Err = r.Err.Error()
		}
		sink(ev)
	}
}

// ProgressPrinter returns an Options.Progress callback that prints one
// "[done/total] label (cell 12ms, eta 3s)" line per completed cell to
// w, with a fresh ETA clock. Use one printer per RunPlan or RunGrids
// call so the estimator never mixes runs.
func ProgressPrinter(w io.Writer) func(done, total int, r CellResult) {
	return SeededProgressPrinter(w, 0, 0)
}

// SeededProgressPrinter is ProgressPrinter with an ETA prior: perCell
// and cells describe a previous run's persisted timings (see
// ShardArtifact.MeanCellWall), so the first line already carries a
// calibrated estimate. Zero arguments reduce to ProgressPrinter. It is
// the printing consumer of ProgressEvents; services stream the same
// events as JSON instead.
func SeededProgressPrinter(w io.Writer, perCell time.Duration, cells int) func(done, total int, r CellResult) {
	return ProgressEvents(func(ev ProgressEvent) { fmt.Fprintln(w, ev) }, perCell, cells)
}

// Curves extracts the successful curves of a result set, in plan order.
func Curves(results []CellResult) []CurveResult {
	out := make([]CurveResult, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			out = append(out, r.Curve)
		}
	}
	return out
}

// FirstError returns the first failed cell's error, or nil.
func FirstError(results []CellResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
