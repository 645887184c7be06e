// Command experiments runs the paper's full evaluation — Figure 2,
// Figure 4 and the §III-B overhead estimate — and emits a markdown
// scorecard including pass/fail checks of the paper's qualitative
// claims.
//
// The evaluation is declared as Spec grids on the sharded experiment
// engine: -parallel N bounds the worker pool (default: all CPUs),
// -replicates N runs every configuration under N derived seeds and
// reports mean ± 95% CI columns, and -ablation appends the named
// DDS-design ablation grid as a markdown scorecard. The report is
// byte-identical for every worker count. A cell that fails (e.g. a
// diverging workload) is reported and skipped; its siblings still run.
//
// The run also shards across machines: -shard i/n executes only the
// i-th of n deterministic grid partitions and writes a versioned JSON
// shard artifact (docs/MERGE_FORMAT.md) instead of the report; -merge
// reassembles a complete artifact set into the byte-identical report
// the unsharded run would have printed. -preset paper selects the
// paper-scale flags, and -eta-from seeds the -progress ETA from a
// previous run's persisted per-cell timings.
//
// -format text|csv|json|markdown replaces the scorecard with each
// selected grid rendered through its Report (or TuningReport) encoder,
// titled with the grid name — the same bytes a dsmphased coordinator
// serves at /report?format=. The CoV curves of one paper figure are
// thus `-grids figure4 -format text`.
//
// The binary is also the coordinator service's worker and client:
// -shard-dir is the dsmphased worker handshake (the shard artifact and
// its resumable .cells.jsonl durability stream land in the given
// directory under canonical names), and -submit posts the selected
// grids to a running dsmphased coordinator, waits, and renders the
// identical report from the served artifacts. -grids overrides the
// flag-derived grid set by name (see docs/SERVICE.md).
//
//	experiments -size small > report.md
//	experiments -size small -parallel 8 -progress > report.md
//	experiments -size small -replicates 5 -ablation > report.md
//	experiments -preset paper -shard 0/4 -shard-out shard0.json   # per worker
//	experiments -preset paper -merge shard*.json > report.md      # reassemble
//	experiments -grids figure2 -submit http://127.0.0.1:8356 > report.md
//	experiments -grids figure4 -replicates 5 -format csv > fig4.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dsmphase"
	"dsmphase/internal/prof"
	"dsmphase/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// gridSet declares the report's grids in render order, compiled from
// the shared registry (harness.BuildGrid) so a shard artifact's
// fingerprints line up with the merge side's — and with a dsmphased
// coordinator's. An -grids override selects registry grids by name;
// otherwise the classic flag-derived set (figure2, figure4, plus the
// -ablation and -tuning opt-ins) applies.
func gridSet(gp dsmphase.GridParams, ablation, tuning bool, override string) ([]dsmphase.NamedGrid, error) {
	names := []string{"figure2", "figure4"}
	if ablation {
		names = append(names, "ablation")
	}
	if tuning {
		names = append(names, "tuning")
	}
	if override != "" {
		names = splitList(override)
	}
	var grids []dsmphase.NamedGrid
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		g, err := dsmphase.BuildGrid(n, gp)
		if err != nil {
			return nil, err
		}
		grids = append(grids, g)
	}
	if len(grids) == 0 {
		return nil, fmt.Errorf("-grids selected no grids")
	}
	return grids, nil
}

// run executes the whole report. The markdown lands on stdout; timing
// and progress land on stderr so stdout stays byte-identical across
// worker counts, machines, and shard/merge splits.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sizeArg    = fs.String("size", "small", "input scale: test, small or full")
		apps       = fs.String("apps", "", "comma-separated workloads, or a panel alias: paper, extended, adversarial")
		protocols  = fs.String("protocol", "", "comma-separated coherence backends to sweep: directory, ivy (default directory)")
		interval   = fs.Uint64("interval", 0, "total sampling interval (0 = 300k reduced default)")
		seed       = fs.Uint64("seed", 1, "workload base seed")
		replicates = fs.Int("replicates", 1, "seeds per configuration (>1 adds 95% CI columns)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "engine worker pool size")
		progress   = fs.Bool("progress", false, "report per-cell progress and ETA on stderr")
		ablation   = fs.Bool("ablation", false, "append the DDS-design ablation scorecard")
		tuningFlag = fs.Bool("tuning", false, "append the adaptive-tuning win-rate scorecard (detector × predictor × controller)")
		format     = fs.String("format", "", "render each selected grid with this encoder (text, csv, json or markdown) instead of the scorecard")
		preset     = fs.String("preset", "", `flag preset: "paper" (size=full, interval=3000000, replicates=5); explicit flags override`)
		gridsFlag  = fs.String("grids", "", "comma-separated named grids overriding the flag-derived set (figure2, figure4, ablation, tuning)")
		shardArg   = fs.String("shard", "", `run only shard i of n ("i/n") and write a shard artifact instead of the report`)
		shardOut   = fs.String("shard-out", "-", `shard artifact path ("-" = stdout)`)
		shardDir   = fs.String("shard-dir", "", "write the shard artifact and its .cells.jsonl stream under canonical names in this directory (the dsmphased worker handshake)")
		shardTrace = fs.Bool("shard-trace", false, "embed interval records (internal/trace JSONL) in the shard artifact")
		mergeFlag  = fs.Bool("merge", false, "merge the shard artifacts given as arguments into the report")
		submitURL  = fs.String("submit", "", "submit the selected grids to a dsmphased coordinator at this URL and render the served report")
		allowPart  = fs.Bool("allow-partial", false, "with -submit: accept a degraded report (failed cells carry errors) instead of failing the job")
		etaFrom    = fs.String("eta-from", "", "seed the -progress ETA from a prior run's shard artifact timings")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	var workloadFiles, workloadTraces listFlag
	fs.Var(&workloadFiles, "workload-file", "register a workload DSL spec file (repeatable); its name becomes valid in -apps")
	fs.Var(&workloadTraces, "workload-trace", `register an address-trace workload as "name=trace.jsonl" (repeatable)`)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // -h printed the usage; not a failure
		}
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	if err := applyPreset(fs, *preset, func() {
		*sizeArg, *interval, *replicates = "full", 3_000_000, 5
	}); err != nil {
		return err
	}
	if *shardArg != "" && *mergeFlag {
		return fmt.Errorf("-shard and -merge are mutually exclusive")
	}
	if *submitURL != "" && (*shardArg != "" || *mergeFlag) {
		return fmt.Errorf("-submit is mutually exclusive with -shard and -merge")
	}

	size, err := dsmphase.ParseSize(*sizeArg)
	if err != nil {
		return err
	}
	// Dynamic workloads register before grid compilation so -apps can
	// name them; their canonical sources travel with -submit requests.
	workloadSources, err := loadWorkloads(workloadFiles, workloadTraces)
	if err != nil {
		return err
	}
	kinds, err := parseProtocols(*protocols)
	if err != nil {
		return err
	}
	grids, err := gridSet(dsmphase.GridParams{
		Size:       size,
		Apps:       splitList(*apps),
		Protocols:  kinds,
		Interval:   *interval,
		Seed:       *seed,
		Replicates: *replicates,
	}, *ablation, *tuningFlag, *gridsFlag)
	if err != nil {
		return err
	}
	// Build the encoders before any simulation runs: a format typo must
	// fail in milliseconds, not after the grids finished.
	encs, err := newGridEncoders(grids, *format)
	if err != nil {
		return err
	}

	// The ETA prior: a previous run's persisted per-cell timings.
	var etaPer time.Duration
	var etaCells int
	if *etaFrom != "" {
		prior, err := dsmphase.ReadShardArtifactFile(*etaFrom)
		if err != nil {
			return fmt.Errorf("-eta-from: %w", err)
		}
		etaPer, etaCells = prior.MeanCellWall()
	}
	// Each Spec.Run gets a fresh printer so the ETA never mixes plans.
	makeOpts := func() dsmphase.EngineOptions {
		opts := dsmphase.EngineOptions{Parallel: *parallel}
		if *progress {
			opts.Progress = dsmphase.SeededProgressPrinter(stderr, etaPer, etaCells)
		}
		return opts
	}
	start := time.Now()

	if *shardArg != "" {
		if err := runShard(grids, *shardArg, *shardOut, *shardDir, *shardTrace, stdout, stderr, makeOpts); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "total runtime: %v (parallel=%d)\n",
			time.Since(start).Round(time.Millisecond), *parallel)
		return nil
	}

	// Produce each grid's report: simulated here, reassembled from shard
	// artifacts, or served by a dsmphased coordinator. All paths flow
	// through the same aggregation, so the rendered bytes agree.
	reports := map[string]*dsmphase.Report{}
	var tuningRep *dsmphase.TuningReport
	switch {
	case *mergeFlag:
		if reports, tuningRep, err = mergeGrids(grids, fs.Args(), stderr); err != nil {
			return err
		}
	case *submitURL != "":
		req := service.JobRequest{
			Size:         *sizeArg,
			Apps:         splitList(*apps),
			Protocols:    splitList(*protocols),
			Interval:     *interval,
			Seed:         *seed,
			Replicates:   *replicates,
			Workloads:    workloadSources,
			AllowPartial: *allowPart,
		}
		if reports, tuningRep, err = runSubmit(*submitURL, grids, req, stderr); err != nil {
			return err
		}
	default:
		for _, g := range grids {
			if g.Tuning {
				if tuningRep, err = g.Spec.RunTuning(makeOpts()); err != nil {
					return err
				}
			} else {
				reports[g.Name] = g.Spec.Run(makeOpts())
			}
		}
	}

	if encs == nil {
		if err := scorecard(stdout, size, *seed, reports, tuningRep); err != nil {
			return err
		}
	}
	for i, enc := range encs {
		if grids[i].Tuning {
			err = enc.tuning.Encode(stdout, tuningRep)
		} else {
			err = enc.report.Encode(stdout, reports[grids[i].Name])
		}
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "total runtime: %v (parallel=%d)\n",
		time.Since(start).Round(time.Millisecond), *parallel)

	// Per-cell isolation keeps a partial report useful, but a run where
	// every cell failed produced no evaluation at all — exit non-zero so
	// scripted consumers notice.
	fig2, fig4 := reports["figure2"], reports["figure4"]
	if fig2 != nil && fig4 != nil && len(fig2.Curves()) == 0 && len(fig4.Curves()) == 0 {
		if err := fig2.FirstError(); err != nil {
			return fmt.Errorf("every cell failed; first error: %w", err)
		}
		if err := fig4.FirstError(); err != nil {
			return fmt.Errorf("every cell failed; first error: %w", err)
		}
	}
	return nil
}

// gridEncoder is one grid's -format encoder; Tuning grids use the
// TuningReport family, the rest the Report one.
type gridEncoder struct {
	report dsmphase.Encoder
	tuning dsmphase.TuningEncoder
}

// newGridEncoders builds the -format encoder of every selected grid,
// titled with the grid name. An empty format returns nil (the
// scorecard); an unknown one fails here, before any simulation runs.
func newGridEncoders(grids []dsmphase.NamedGrid, format string) ([]gridEncoder, error) {
	if format == "" {
		return nil, nil
	}
	encs := make([]gridEncoder, len(grids))
	for i, g := range grids {
		var err error
		if g.Tuning {
			encs[i].tuning, err = dsmphase.NewTuningEncoder(format, g.Name)
		} else {
			encs[i].report, err = dsmphase.NewEncoder(format, g.Name)
		}
		if err != nil {
			return nil, err
		}
	}
	return encs, nil
}

// scorecard prints the default report: the Figure 2 and Figure 4
// claim checks, the §III-B overhead estimate, and the ablation and
// tuning grids as markdown when selected.
func scorecard(w io.Writer, size dsmphase.Size, seed uint64, reports map[string]*dsmphase.Report, tuningRep *dsmphase.TuningReport) error {
	fmt.Fprintf(w, "# Experiment report (size=%s, seed=%d)\n\n", size, seed)
	if rep := reports["figure2"]; rep != nil {
		reportFigure2(w, rep)
	}
	if rep := reports["figure4"]; rep != nil {
		reportFigure4(w, rep)
	}
	reportOverhead(w)
	if rep := reports["ablation"]; rep != nil {
		if err := reportAblation(w, rep); err != nil {
			return err
		}
	}
	if tuningRep == nil {
		return nil
	}
	enc, err := dsmphase.NewTuningEncoder("markdown", "Adaptive tuning — detector × predictor × controller")
	if err != nil {
		return err
	}
	return enc.Encode(w, tuningRep)
}

// applyPreset rewrites flag defaults from a named preset, keeping any
// value the user set explicitly.
func applyPreset(fs *flag.FlagSet, name string, paper func()) error {
	if name == "" {
		return nil
	}
	if name != "paper" {
		return fmt.Errorf("unknown preset %q (want paper)", name)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	saved := map[string]string{}
	for _, n := range []string{"size", "interval", "replicates"} {
		if set[n] {
			saved[n] = fs.Lookup(n).Value.String()
		}
	}
	paper()
	for n, v := range saved {
		if err := fs.Set(n, v); err != nil {
			return err
		}
	}
	return nil
}

// runShard executes every grid's assigned shard and writes one
// multi-grid artifact to out ("-" = stdout; no report is rendered in
// shard mode). File outputs also stream every completed cell to a
// `.cells.jsonl` sibling, and a re-run of the same shard resumes from
// that stream: already-emitted cells are skipped and their serialized
// results reused verbatim, so the resumed artifact matches an
// uninterrupted run. -shard-dir derives the canonical output path
// inside a work directory (the dsmphased worker handshake).
func runShard(grids []dsmphase.NamedGrid, shardArg, out, dir string, withTrace bool, stdout, stderr io.Writer, makeOpts func() dsmphase.EngineOptions) error {
	shard, of, err := dsmphase.ParseShard(shardArg)
	if err != nil {
		return err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		out = filepath.Join(dir, fmt.Sprintf("shard_%d_of_%d.json", shard, of))
	}
	var cs *dsmphase.CellStream
	var prior map[string]*dsmphase.StreamedGrid
	if out != "-" {
		streamPath := dsmphase.CellStreamPath(out)
		if prior, err = dsmphase.ReadCellStream(streamPath); err != nil {
			return err
		}
		// Resume safety: every recovered section must match its grid's
		// current plan exactly (fingerprint, shard coordinates, cell
		// count). A stream from different flags is stale — drop it whole.
		valid := true
		for name, sg := range prior {
			var g *dsmphase.NamedGrid
			for i := range grids {
				if grids[i].Name == name {
					g = &grids[i]
				}
			}
			if g == nil || !sg.Matches(name, g.Spec.Plan().Fingerprint(), shard, of, g.Spec.Plan().Len()) {
				valid = false
				break
			}
		}
		if !valid {
			fmt.Fprintf(stderr, "experiments: cell stream %s does not match this plan; restarting the shard\n", streamPath)
			if err := os.Remove(streamPath); err != nil {
				return err
			}
			prior = nil
		}
		if cs, err = dsmphase.OpenCellStream(streamPath); err != nil {
			return err
		}
	}
	art := &dsmphase.ShardArtifact{Format: dsmphase.ShardFormat, Shard: shard, Of: of}
	resumed := 0
	for _, g := range grids {
		opts := makeOpts()
		if g.Tuning {
			// The tuning grid needs the online adaptive-loop hook so each
			// cell's artifact entry carries the scorecard payload.
			hook, err := g.Spec.TuningHook()
			if err != nil {
				return err
			}
			opts.Hook = hook
		}
		if withTrace {
			opts.Hook = dsmphase.TraceHook(opts.Hook)
		}
		var results []dsmphase.CellResult
		if cs != nil {
			var pcells []dsmphase.ShardCell
			if sg := prior[g.Name]; sg != nil {
				pcells = sg.Cells
			}
			var n int
			if results, n, err = g.Spec.RunShardStreamed(g.Name, shard, of, opts, cs, pcells); err != nil {
				return err
			}
			resumed += n
		} else {
			results = g.Spec.RunShard(shard, of, opts)
		}
		sg, err := dsmphase.NewShardGrid(g.Name, g.Spec, results, g.Tuning, withTrace)
		if err != nil {
			return err
		}
		art.Grids = append(art.Grids, sg)
	}
	if cs != nil {
		if err := cs.Close(); err != nil {
			return err
		}
	}
	if resumed > 0 {
		fmt.Fprintf(stderr, "experiments: resumed %d cells from the shard's cell stream\n", resumed)
	}
	if out == "-" {
		return dsmphase.WriteShardArtifact(stdout, art)
	}
	// Write-then-rename so a killed run never leaves a truncated
	// artifact where a reader (the dsmphased retry validator) expects a
	// complete one.
	tmp := out + ".tmp"
	if err := dsmphase.WriteShardArtifactFile(tmp, art); err != nil {
		return err
	}
	return os.Rename(tmp, out)
}

// runSubmit is the service-client mode: one job per selected grid is
// posted to a dsmphased coordinator, and the served artifacts are
// reassembled through the same MergeShards/Assemble aggregation the
// local paths use — so the rendered report is byte-identical to a
// direct run of the same flags.
func runSubmit(url string, grids []dsmphase.NamedGrid, req service.JobRequest, stderr io.Writer) (map[string]*dsmphase.Report, *dsmphase.TuningReport, error) {
	client := &service.Client{BaseURL: url}
	reports := map[string]*dsmphase.Report{}
	var tuningRep *dsmphase.TuningReport
	for _, g := range grids {
		r := req
		r.Grid = g.Name
		st, err := client.Submit(r)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "experiments: submitted %s as %s (%s)\n", g.Name, st.ID, st.State)
		if st, err = client.Wait(st.ID, 0); err != nil {
			return nil, nil, err
		}
		if st.Cached {
			fmt.Fprintf(stderr, "experiments: %s served from the coordinator's result cache\n", st.ID)
		}
		if st.State == service.StateDegraded {
			fmt.Fprintf(stderr, "experiments: WARNING: %s degraded — %d of %d cells carry errors (indices %v)\n",
				st.ID, len(st.Injured), st.CellsTotal, st.Injured)
		}
		art, err := client.Artifact(st.ID)
		if err != nil {
			return nil, nil, err
		}
		results, err := dsmphase.MergeShards(g.Spec, g.Name, []*dsmphase.ShardArtifact{art})
		if err != nil {
			return nil, nil, err
		}
		if g.Tuning {
			if tuningRep, err = g.Spec.AssembleTuning(results); err != nil {
				return nil, nil, err
			}
		} else {
			reports[g.Name] = g.Spec.Assemble(results)
		}
	}
	return reports, tuningRep, nil
}

// mergeGrids reads a complete shard-artifact set and reassembles every
// grid's report through the same aggregation path the unsharded run
// uses. An artifact grid the merge-side flags did not select (e.g.
// shards ran with -ablation, the merge without) is noted on stderr so
// the data is not silently dropped; the reverse — a selected grid the
// artifacts lack — is a hard error from MergeShards.
func mergeGrids(grids []dsmphase.NamedGrid, files []string, stderr io.Writer) (map[string]*dsmphase.Report, *dsmphase.TuningReport, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("-merge needs shard artifact files as arguments")
	}
	arts, err := dsmphase.ReadShardArtifactFiles(files)
	if err != nil {
		return nil, nil, err
	}
	reports := map[string]*dsmphase.Report{}
	var tuningRep *dsmphase.TuningReport
	selected := map[string]bool{}
	for _, g := range grids {
		selected[g.Name] = true
		results, err := dsmphase.MergeShards(g.Spec, g.Name, arts)
		if err != nil {
			return nil, nil, err
		}
		if g.Tuning {
			if tuningRep, err = g.Spec.AssembleTuning(results); err != nil {
				return nil, nil, err
			}
		} else {
			reports[g.Name] = g.Spec.Assemble(results)
		}
	}
	for _, ag := range arts[0].Grids {
		if !selected[ag.Name] {
			fmt.Fprintf(stderr, "experiments: note: shard artifacts carry grid %q, which the merge flags did not select; rerun -merge with the shard run's flags to render it\n", ag.Name)
		}
	}
	return reports, tuningRep, nil
}

// reportAblation appends the ablation grid's markdown scorecard.
func reportAblation(w io.Writer, rep *dsmphase.Report) error {
	enc, err := dsmphase.NewEncoder("markdown", "Ablation — DDS design choices")
	if err != nil {
		return err
	}
	if err := enc.Encode(w, rep); err != nil {
		return err
	}
	reportSkipped(w, rep.CellResults())
	return nil
}

// reportSkipped lists failed cells; the engine isolates them so the
// rest of the figure still reports.
func reportSkipped(w io.Writer, results []dsmphase.CellResult) {
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "- skipped `%s`: %v\n", r.Cell.Label(), r.Err)
		}
	}
}

// appCell labels a configuration's application column, tagging the
// coherence backend when it is not the default so a -protocol sweep's
// rows (and its per-app claim sequences) stay distinct; default-protocol
// reports render exactly as before.
func appCell(c dsmphase.Configuration) string {
	if c.Protocol != dsmphase.ProtocolDirectory {
		return c.App + "/" + c.Protocol.String()
	}
	return c.App
}

// bandAt is one configuration's CoV@25 point: the across-replicate mean
// and the 95% CI half-width (zero at one replicate).
type bandAt struct {
	mean, half float64
}

func (b bandAt) lo() float64 { return b.mean - b.half }
func (b bandAt) hi() float64 { return b.mean + b.half }

// reportFigure2 prints the BBV degradation table and checks the paper's
// claim that quality degrades with node count. At several replicates
// the CoV columns are across-seed means, a 95% CI column appears, and
// the claim is interval-aware: a pass needs the whole CoV@25 sequence
// non-decreasing in node count AND the smallest and largest systems'
// confidence bands to separate — overlapping bands are not a
// statistically supported degradation. At one replicate the check falls
// back to comparing bare means over the full sequence.
func reportFigure2(w io.Writer, rep *dsmphase.Report) {
	fmt.Fprintln(w, "## Figure 2 — baseline BBV vs node count")
	fmt.Fprintln(w)
	ci := rep.Replicates > 1
	if ci {
		fmt.Fprintln(w, "| app | procs | CoV@10 | CoV@25 | ±CI@25 |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
	} else {
		fmt.Fprintln(w, "| app | procs | CoV@10 | CoV@25 |")
		fmt.Fprintln(w, "|---|---|---|---|")
	}
	covs := map[string][]bandAt{} // app -> CoV@25 band in procs order
	var appOrder []string
	for _, c := range rep.Configs {
		if len(c.Curves) == 0 {
			continue
		}
		c10 := c.Band.MeanAt(10)
		c25, half25 := c.Band.At(25)
		app := appCell(c.Config)
		if ci {
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s |\n",
				app, c.Config.Procs, fmtCov(c10), fmtCov(c25), fmtCov(half25))
		} else {
			fmt.Fprintf(w, "| %s | %d | %s | %s |\n", app, c.Config.Procs, fmtCov(c10), fmtCov(c25))
		}
		if _, seen := covs[app]; !seen {
			appOrder = append(appOrder, app)
		}
		covs[app] = append(covs[app], bandAt{mean: c25, half: half25})
	}
	fmt.Fprintln(w)
	reportSkipped(w, rep.CellResults())
	pass := 0
	for _, app := range appOrder {
		cs := covs[app]
		monotone := len(cs) >= 2
		for i := 1; i < len(cs); i++ {
			if cs[i].mean < cs[i-1].mean {
				monotone = false
				break
			}
		}
		switch {
		case !monotone || cs[len(cs)-1].mean <= cs[0].mean:
			fmt.Fprintf(w, "- `%s`: no monotone degradation across node counts ✗\n", app)
		case ci && cs[len(cs)-1].lo() <= cs[0].hi():
			fmt.Fprintf(w, "- `%s`: degradation within CI overlap (not significant) ✗\n", app)
		case ci:
			fmt.Fprintf(w, "- `%s`: monotone degradation across node counts (CI-separated) ✓\n", app)
			pass++
		default:
			fmt.Fprintf(w, "- `%s`: monotone degradation across node counts ✓\n", app)
			pass++
		}
	}
	fmt.Fprintf(w, "\n**Claim (quality degrades with node count): %d/%d applications.**\n\n",
		pass, len(appOrder))
}

// reportFigure4 prints the BBV vs BBV+DDV comparison and checks the
// across-the-board improvement claim. At several replicates the check
// is interval-aware: a configuration counts as a win only when the
// detectors' 95% CI bands at the 25-phase budget separate (DDV's upper
// bound below BBV's lower bound) — an overlapping-CI "win" proves
// nothing. At one replicate it falls back to comparing bare means.
func reportFigure4(w io.Writer, rep *dsmphase.Report) {
	fmt.Fprintln(w, "## Figure 4 — BBV vs BBV+DDV")
	fmt.Fprintln(w)
	ci := rep.Replicates > 1
	if ci {
		fmt.Fprintln(w, "| app | procs | BBV@25 | DDV@25 | gain | ±CI(DDV) |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
	} else {
		fmt.Fprintln(w, "| app | procs | BBV@25 | DDV@25 | gain |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
	}
	type key struct {
		app   string
		procs int
	}
	bbv := map[key]*dsmphase.ConfigResult{}
	ddv := map[key]*dsmphase.ConfigResult{}
	var order []key
	for i := range rep.Configs {
		c := &rep.Configs[i]
		if len(c.Curves) == 0 {
			continue
		}
		k := key{appCell(c.Config), c.Config.Procs}
		if c.Config.Detector == dsmphase.DetectorBBV {
			bbv[k] = c
			order = append(order, k)
		} else {
			ddv[k] = c
		}
	}
	wins, total := 0, 0
	for _, k := range order {
		b, okB := bbv[k]
		d, okD := ddv[k]
		if !okB || !okD {
			continue
		}
		b25, bHalf := b.Band.At(25)
		d25, dHalf := d.Band.At(25)
		gain := "—"
		switch {
		case d25 > 0:
			gain = fmt.Sprintf("%.1f×", b25/d25)
		case b25 > 0:
			gain = "∞"
		}
		if ci {
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s |\n",
				k.app, k.procs, fmtCov(b25), fmtCov(d25), gain, fmtCov(dHalf))
		} else {
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s |\n", k.app, k.procs, fmtCov(b25), fmtCov(d25), gain)
		}
		total++
		if ci {
			// A win needs the CI bands to separate, not just the means.
			if d25+dHalf < b25-bHalf {
				wins++
			}
		} else if d25 <= b25*1.0001 {
			wins++
		}
	}
	fmt.Fprintln(w)
	reportSkipped(w, rep.CellResults())
	if ci {
		fmt.Fprintf(w, "**Claim (BBV+DDV improves CoV across the board, CI-separated): %d/%d configurations.**\n\n",
			wins, total)
	} else {
		fmt.Fprintf(w, "**Claim (BBV+DDV improves CoV across the board): %d/%d configurations.**\n\n",
			wins, total)
	}
}

// reportOverhead prints the §III-B estimate against the paper's quote.
func reportOverhead(w io.Writer) {
	o := dsmphase.PaperOverheadConfig()
	bw := o.BandwidthPerProcessor()
	frac := o.FractionOfController()
	fmt.Fprintln(w, "## §III-B — DDS exchange overhead")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "- bandwidth per processor: %.1f kB/s (paper: \"about 160kB/s\") %s\n",
		bw/1e3, check(bw > 150e3 && bw < 170e3))
	fmt.Fprintf(w, "- fraction of 1.5 GB/s controller: %.4f%% (paper: \"under 0.15%%\") %s\n",
		100*frac, check(frac < 0.0015))
}

func fmtCov(v float64) string {
	if math.IsInf(v, 1) {
		return "—"
	}
	return fmt.Sprintf("%.4f", v)
}

func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// parseProtocols parses the -protocol flag's comma list; empty keeps
// the directory default (an empty sweep axis).
func parseProtocols(s string) ([]dsmphase.ProtocolKind, error) {
	var kinds []dsmphase.ProtocolKind
	for _, name := range splitList(s) {
		k, err := dsmphase.ParseProtocolKind(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// loadWorkloads registers the -workload-file specs and -workload-trace
// captures and returns their canonical sources in flag order — the
// definitions a -submit request ships to the coordinator.
func loadWorkloads(files, traces listFlag) ([]string, error) {
	var sources []string
	for _, path := range files {
		sw, err := dsmphase.LoadWorkloadSpecFile(path)
		if err != nil {
			return nil, err
		}
		if err := sw.Register(); err != nil {
			return nil, err
		}
		sources = append(sources, string(sw.Source()))
	}
	for _, spec := range traces {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf(`-workload-trace wants "name=trace.jsonl", got %q`, spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, err := dsmphase.ReadAccessTrace(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		sw, err := dsmphase.WorkloadFromTrace(name,
			fmt.Sprintf("address trace ingested from %s", filepath.Base(path)), recs)
		if err != nil {
			return nil, err
		}
		if err := sw.Register(); err != nil {
			return nil, err
		}
		sources = append(sources, string(sw.Source()))
	}
	return sources, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
