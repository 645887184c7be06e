package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/harness"
	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/trace"
	"dsmphase/internal/workloads"
)

// The in-process workloads: paper-grid, short-interval and
// protocol-mix. Each runs its grids serially (Options.Parallel 1) and
// renders every encoder format. The measured pass goes through the
// engine; the traced pass re-runs the same cells one layer call at a
// time, so that each layer's time can be read off, and must reproduce
// the measured pass's bytes exactly.

// shards is the fan-out of the cluster path's artifacts.
const shards = 2

// inproc is one set-up in-process workload.
type inproc struct {
	grids []harness.NamedGrid
	// cluster sends every grid through the shard-artifact path with
	// interval traces embedded, as a cluster run with -shard-trace does.
	cluster bool
	// dir holds the shard artifacts.
	dir string
}

// setupInproc builds a workload's grids: registering its DSL and trace
// workloads, compiling each grid and its plan fingerprint, and
// validating tuning axes — the work a run pays before its first
// simulation.
func setupInproc(cfg runConfig) (*inproc, error) {
	gp := harness.GridParams{Size: workloads.SizeTest, Seed: cfg.seed}
	w := &inproc{}
	var names []string
	switch cfg.workload {
	case "paper-grid":
		names = []string{"figure2", "figure4", "tuning"}
		gp.Apps = []string{"fmm", "lu", "equake", "art"}
	case "short-interval":
		names = []string{"figure4"}
		gp.Apps = []string{"fmm", "lu", "equake", "art"}
		gp.Interval = 40_000
		w.cluster = true
	case "protocol-mix":
		names = []string{"figure4"}
		gp.Apps = []string{"oscillate", "drift", "drift-f13", "pingpong", "fsstencil", "pagethrash"}
		gp.Protocols = []coherence.Kind{coherence.KindDirectory, coherence.KindIVY}
		if err := registerMixWorkloads(filepath.Join(cfg.root, "bench", "testdata")); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown in-process workload %q", cfg.workload)
	}
	if cfg.apps != nil {
		gp.Apps = cfg.apps
	}
	for _, name := range names {
		g, err := harness.BuildGrid(name, gp)
		if err != nil {
			return nil, err
		}
		_ = g.Spec.Plan().Fingerprint()
		if g.Tuning {
			if _, err := g.Spec.TuningHook(); err != nil {
				return nil, err
			}
		}
		w.grids = append(w.grids, g)
	}
	dir, err := os.MkdirTemp("", "bench-shards-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	return w, nil
}

// registerMixWorkloads registers protocol-mix's non-builtin workloads:
// two adversarial DSL specs, one fuzzer-found spec, and an address trace
// ingested through the trace front end. Registration is idempotent, so
// repeated set-ups re-parse without failing.
func registerMixWorkloads(dir string) error {
	for _, f := range []string{"oscillate.wdl", "drift.wdl", "drift-f13.wdl"} {
		sw, err := workloads.LoadSpecFile(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		if err := sw.Register(); err != nil {
			return err
		}
	}
	f, err := os.Open(filepath.Join(dir, "pingpong_trace.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	accs, err := trace.ReadAccessJSONL(f)
	if err != nil {
		return err
	}
	sw, err := workloads.FromTrace("pingpong", "2-processor ping-pong address trace", accs)
	if err != nil {
		return err
	}
	return sw.Register()
}

func (w *inproc) close() { os.RemoveAll(w.dir) }

// tally counts the engine work of one pass.
type tally struct {
	cells, failed int
	// sims maps each distinct simulation (per grid) to its summary.
	sims            map[string]machine.Summary
	classifications uint64
	tuningSteps     uint64
	reportBytes     int
	shardBytes      int64
}

func newTally() *tally { return &tally{sims: map[string]machine.Summary{}} }

// cell records one finished cell.
func (t *tally) cell(grid string, r harness.CellResult) {
	t.cells++
	if r.Err != nil {
		t.failed++
		return
	}
	t.sims[grid+"|"+simKey(r.Cell)] = r.Curve.Summary
}

// progress adapts cell to the engine's Progress callback.
func (t *tally) progress(grid string) func(done, total int, r harness.CellResult) {
	return func(_, _ int, r harness.CellResult) { t.cell(grid, r) }
}

func (t *tally) instrs() uint64 {
	var n uint64
	for _, s := range t.sims {
		n += s.Instructions
	}
	return n
}

// simKey is a cell's simulation identity: cells agreeing on it share one
// machine run in the engine's record cache.
func simKey(c harness.Cell) string {
	r := c.Run
	return fmt.Sprintf("%s|%s|%d|%d|%d|%s|%s", r.Workload, r.Size, r.Procs, r.IntervalInstructions, r.Seed, r.Protocol, c.TweakKey)
}

// passOut is one pass's outcome.
type passOut struct {
	wall  time.Duration
	root  int               // traced passes: the pass's root span
	bytes map[string][]byte // "grid/format" → encoded report
	t     *tally
}

// pass runs every grid once and renders every format. With a nil
// ledger it is the measured pass, through the engine
// (harness.RunPlan, the body of Spec.Run and Spec.RunTuning); with a
// ledger it is the traced decomposition.
func (w *inproc) pass(l *ledger) (passOut, error) {
	out := passOut{bytes: map[string][]byte{}, t: newTally()}
	out.root = l.begin(0, "pass", -1, "")
	start := time.Now()
	for _, g := range w.grids {
		gid := l.begin(out.root, "grid", -1, g.Name)
		err := w.grid(l, gid, g, out)
		l.end(gid)
		if err != nil {
			return out, fmt.Errorf("%s: %w", g.Name, err)
		}
	}
	out.wall = time.Since(start)
	l.end(out.root)
	return out, nil
}

// crossCheck renders the workload through the other path — through the
// shard artifacts for direct workloads, straight from the engine for
// the cluster one — for comparison against the measured bytes on seeds
// without pins.
func (w *inproc) crossCheck() (map[string][]byte, error) {
	other := *w
	other.cluster = !w.cluster
	out, err := other.pass(nil)
	return out.bytes, err
}

// grid simulates and sweeps every cell of one grid, sends the results
// through the shard artifacts on the cluster path, assembles the report
// and encodes it.
func (w *inproc) grid(l *ledger, gid int, g harness.NamedGrid, out passOut) error {
	var hook harness.CellHook
	if g.Tuning {
		var err error
		if hook, err = g.Spec.TuningHook(); err != nil {
			return err
		}
	}
	if w.cluster {
		hook = harness.TraceHook(hook)
	}
	var results []harness.CellResult
	if l == nil {
		results = harness.RunPlan(g.Spec.Plan(), harness.Options{Parallel: 1, Progress: out.t.progress(g.Name), Hook: hook})
	} else {
		results = decompose(l, gid, g, hook, out.t)
	}
	if w.cluster {
		var err error
		if results, err = w.shardRoundTrip(l, gid, g, results, out.t); err != nil {
			return err
		}
	}
	rep, err := assemble(l, gid, g, results)
	if err != nil {
		return err
	}
	return encode(l, gid, g, rep, out)
}

// shardRoundTrip splits a grid's results into the artifacts of a
// 2-shard cluster run — interval traces embedded — writes and reads them
// back, and merges them. The simulations all ran in one engine call, so
// every pass keeps the same simulations resident: run shard by shard,
// the peak resident set would follow how each seed's hash happens to
// split the plan.
func (w *inproc) shardRoundTrip(l *ledger, gid int, g harness.NamedGrid, results []harness.CellResult, t *tally) ([]harness.CellResult, error) {
	var paths []string
	for shard := 0; shard < shards; shard++ {
		var part []harness.CellResult
		for _, i := range g.Spec.Plan().ShardIndices(shard, shards) {
			part = append(part, results[i])
		}
		path := filepath.Join(w.dir, fmt.Sprintf("%s_shard_%d_of_%d.json", g.Name, shard, shards))
		id := l.begin(gid, "shard.write", -1, "")
		sg, err := harness.NewShardGrid(g.Name, g.Spec, part, g.Tuning, true)
		if err == nil {
			err = harness.WriteShardArtifactFile(path, &harness.ShardArtifact{Shard: shard, Of: shards, Grids: []harness.ShardGrid{sg}})
		}
		l.end(id)
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		t.shardBytes += fi.Size()
		paths = append(paths, path)
	}
	id := l.begin(gid, "shard.read", -1, "")
	arts, err := harness.ReadShardArtifactFiles(paths)
	l.end(id)
	if err != nil {
		return nil, err
	}
	id = l.begin(gid, "shard.merge", -1, "")
	defer l.end(id)
	return harness.MergeShards(g.Spec, g.Name, arts)
}

// decompose runs every cell of the grid as the engine does — each
// distinct simulation once, then every cell's sweep and hook over it —
// with one span per layer call, and returns the results in plan order.
func decompose(l *ledger, parent int, g harness.NamedGrid, hook harness.CellHook, t *tally) []harness.CellResult {
	cells := g.Spec.Plan().Cells()
	var order []string
	groups := map[string][]int{}
	for i, c := range cells {
		k := simKey(c)
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	results := make([]harness.CellResult, len(cells))
	for _, k := range order {
		group := groups[k]
		rc := cells[group[0]].Run
		id := l.begin(parent, "machine.simulate", group[0], "")
		m, sum, err := harness.Simulate(rc)
		l.end(id)
		for _, i := range group {
			r := harness.CellResult{Index: i, Cell: cells[i], Err: err}
			if err == nil {
				id := l.begin(parent, "sweep", i, "")
				r.Curve = harness.SweepMachine(m, rc, cells[i].Kind, sum)
				l.end(id)
				if hook != nil {
					// The span times the tuning loop; on the cluster path
					// it also covers TraceHook's capture of the records,
					// which only copies slice headers.
					id = l.begin(parent, "tuning.hook", i, "")
					r.Extra = hook(cells[i], m, r.Curve, sum)
					l.end(id)
				}
				countSweep(t, g, cells[i], m)
			}
			t.cell(g.Name, r)
			results[i] = r
		}
	}
	return results
}

// countSweep adds one cell's classification and tuning-step counts:
// every threshold setting of the detector's default sweep classifies
// every recorded interval, and the tuning loop steps every recorded
// interval once per predictor × controller.
func countSweep(t *tally, g harness.NamedGrid, c harness.Cell, m *machine.Machine) {
	var intervals uint64
	for _, recs := range m.RecordsByProc() {
		intervals += uint64(len(recs))
	}
	sc := harness.DefaultSweep(c.Kind, 1+float64(m.Network().Diameter()))
	settings := len(sc.BBVThresholds)
	if c.Kind != core.DetectorBBV && c.Kind != core.DetectorWSS && len(sc.DDSThresholds) > 0 {
		settings *= len(sc.DDSThresholds)
	}
	t.classifications += uint64(settings) * intervals
	if g.Tuning {
		t.tuningSteps += uint64(len(g.Spec.Predictors())*len(g.Spec.Controllers())) * intervals
	}
}

// report is an assembled grid of either encoder family.
type report struct {
	plain  *harness.Report
	tuning *harness.TuningReport
}

func assemble(l *ledger, parent int, g harness.NamedGrid, results []harness.CellResult) (report, error) {
	id := l.begin(parent, "report.assemble", -1, "")
	defer l.end(id)
	if g.Tuning {
		rep, err := g.Spec.AssembleTuning(results)
		return report{tuning: rep}, err
	}
	return report{plain: g.Spec.Assemble(results)}, nil
}

// encode renders the report in every format of its family, titled with
// the grid name as the coordinator service titles it.
func encode(l *ledger, parent int, g harness.NamedGrid, rep report, out passOut) error {
	for _, name := range harness.EncoderNames() {
		var buf bytes.Buffer
		id := l.begin(parent, "report.encode", -1, name)
		err := encodeOne(&buf, g.Name, name, rep)
		l.end(id)
		if err != nil {
			return err
		}
		out.bytes[g.Name+"/"+name] = buf.Bytes()
		out.t.reportBytes += buf.Len()
	}
	return nil
}

func encodeOne(w io.Writer, title, format string, rep report) error {
	if rep.tuning != nil {
		enc, err := harness.NewTuningEncoder(format, title)
		if err != nil {
			return err
		}
		return enc.Encode(w, rep.tuning)
	}
	enc, err := harness.NewEncoder(format, title)
	if err != nil {
		return err
	}
	return enc.Encode(w, rep.plain)
}

// generate drains the instruction streams of every distinct simulation
// of the workload's grids through an isa.Emitter, outside any pass: the
// generation share of harness.Simulate, measured on its own. It returns
// the time spent and the instructions generated.
func (w *inproc) generate(l *ledger) (time.Duration, uint64, error) {
	var total time.Duration
	var n uint64
	e := isa.NewEmitter(4096)
	for _, g := range w.grids {
		seen := map[string]bool{}
		for _, c := range g.Spec.Plan().Cells() {
			k := simKey(c)
			if seen[k] {
				continue
			}
			seen[k] = true
			wl, err := workloads.ByName(c.Run.Workload)
			if err != nil {
				return 0, 0, err
			}
			id := l.begin(0, "workloads.gen", -1, g.Name)
			start := time.Now()
			for _, th := range wl.Threads(c.Run.Procs, c.Run.Size, c.Run.Seed) {
				for e.Reset(); th.NextBatch(e); e.Reset() {
					n += uint64(e.Len())
				}
			}
			total += time.Since(start)
			l.end(id)
		}
	}
	return total, n, nil
}
