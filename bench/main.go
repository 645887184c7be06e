// Command bench is the repository benchmark. It runs one workload of the
// paper's pipeline — generate and simulate, record per-interval
// signatures, sweep the detector thresholds, assemble and render the
// reports, through shard artifacts or the coordinator service where the
// workload says so — for a fixed time, checks every report byte, and
// prints one JSON result line. Run it from the repository root:
//
//	bash bench/run.sh --workload paper-grid --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
// the per-layer ones from a traced re-run. bench/README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration // measured time per section (untraced, traced)
	traced   bool
	update   bool   // re-pin instead of checking pins
	root     string // repository root
	// workerBin is the cmd/experiments binary the served workload's
	// coordinator execs.
	workerBin string
	// apps, when set, replaces the workload's applications, and smoke
	// cuts a run to one pass (one served job) and one set-up: the reduced
	// scale the tests run.
	apps  []string
	smoke bool
}

const (
	setupReps = 101 // set-ups per run; setup_s is their median
	minPasses = 3   // in-process passes per measured section, at least
	minJobs   = 10  // served jobs per measured section, at least
	cacheHits = 20  // served jobs resubmitted as cache hits
	coverage  = 0.95
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := runConfig{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, as named in BENCHMARK.json")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "measured seconds per section (0 = run_seconds of BENCHMARK.json)")
	traceMode := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced re-run")
	spans := fs.String("spans", "", "with --trace 1, write the span ledger to this file at exit")
	fs.BoolVar(&cfg.update, "update-digests", false, "re-pin this workload and seed in bench/digests.json instead of checking the pins")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.workerBin, "experiments", "", "cmd/experiments binary for the served workload's workers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "bench: --trace wants 0 or 1")
		return 2
	}
	cfg.traced = *traceMode == 1
	res, line, err := runBench(cfg, *seconds, *spans, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runBench loads the manifest and pins, measures the workload and
// returns its result line, loaded back through parseResult so that only
// a line carrying every declared metric with its unit is ever printed.
func runBench(cfg runConfig, seconds int, spansPath string, log io.Writer) (*result, []byte, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, nil, err
	}
	if !man.hasWorkload(cfg.workload) {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if seconds <= 0 {
		seconds = man.RunSeconds
	}
	if !cfg.smoke {
		cfg.seconds = time.Duration(seconds) * time.Second
	}
	pinPath := filepath.Join(cfg.root, "bench", "digests.json")
	pins, err := loadPins(pinPath)
	if err != nil {
		return nil, nil, err
	}
	c := &checker{log: log}
	var m measured
	if cfg.workload == "served" {
		m, err = measureServed(cfg, pins, c)
	} else {
		m, err = measureInproc(cfg, pins, c)
	}
	if err != nil {
		return nil, nil, err
	}
	if cfg.update && c.failed == 0 {
		for seed, d := range m.digests {
			pins.set(cfg.workload, seed, d)
		}
		if err := pins.save(pinPath); err != nil {
			return nil, nil, err
		}
	}
	if spansPath != "" && m.ledger != nil {
		if err := m.ledger.write(spansPath); err != nil {
			return nil, nil, err
		}
	}
	line, err := json.Marshal(newResult(man, cfg.traced, m.values, c.attempted, c.failed))
	if err != nil {
		return nil, nil, err
	}
	res, err := parseResult(line, man, cfg.traced)
	return res, line, err
}

// measured is a workload's measurement.
type measured struct {
	values  map[string]float64
	ledger  *ledger                      // traced runs
	digests map[uint64]map[string]string // seed → rendered digests
}

// measureInproc runs an in-process workload: set-up, the measured
// passes, their output checks and, when traced, the traced passes.
func measureInproc(cfg runConfig, pins pinSet, c *checker) (measured, error) {
	setup, w, err := timedSetup(cfg, func() (*inproc, error) { return setupInproc(cfg) })
	if err != nil {
		return measured{}, err
	}
	defer w.close()
	var ref []passOut
	err = repeat(cfg.seconds, cfg.passes(), func() error {
		p, err := w.pass(nil)
		ref = append(ref, p)
		return err
	})
	if err != nil {
		return measured{}, err
	}
	peak := peakRSSMB()
	for i, p := range ref {
		c.cells(p.t)
		if i > 0 {
			c.same(fmt.Sprintf("pass %d vs pass 0", i), p.bytes, ref[0].bytes)
		}
	}
	got := digests(ref[0].bytes)
	m := measured{digests: map[uint64]map[string]string{cfg.seed: got}}
	if want, ok := pins.lookup(cfg.workload, cfg.seed); ok && !cfg.update {
		c.pinned("pins", got, want)
	} else if !cfg.traced {
		// The traced decomposition is itself an independent path, so only
		// untraced runs need the cross-check.
		other, err := w.crossCheck()
		if err != nil {
			return measured{}, err
		}
		c.same("cross-check", other, ref[0].bytes)
	}
	walls := make([]time.Duration, len(ref))
	instrs := make([]uint64, len(ref))
	for i, p := range ref {
		walls[i], instrs[i] = p.wall, p.t.instrs()
	}
	if !cfg.traced {
		m.values = endToEnd(setup, walls, instrs, peak)
		return m, nil
	}

	m.ledger = newLedger()
	var layers []map[string]float64
	var traced []time.Duration
	err = repeat(cfg.seconds, cfg.passes(), func() error {
		gen, genInstrs, err := w.generate(m.ledger)
		if err != nil {
			return err
		}
		alloc0, gc0 := runtimeCounters()
		p, err := w.pass(m.ledger)
		if err != nil {
			return err
		}
		alloc1, gc1 := runtimeCounters()
		c.cells(p.t)
		c.same("traced pass vs measured pass", p.bytes, ref[0].bytes)
		layers = append(layers, inprocLayers(m.ledger, p, gen, genInstrs, alloc1-alloc0, gc1-gc0))
		traced = append(traced, p.wall)
		return nil
	})
	if err != nil {
		return measured{}, err
	}
	m.values = medians(layers)
	m.values["trace.overhead_frac"] = medianDur(traced)/medianDur(walls) - 1
	c.check(m.values["trace.coverage"] >= coverage, "trace coverage %.3f below %.2f", m.values["trace.coverage"], coverage)
	return m, nil
}

// measureServed runs the served workload: set-up, the measured jobs,
// their output checks, the cache hits and, when traced, a second loop
// on a coordinator whose workers are timed.
func measureServed(cfg runConfig, pins pinSet, c *checker) (measured, error) {
	if cfg.workerBin == "" {
		return measured{}, fmt.Errorf("the served workload needs --experiments")
	}
	setup, s, err := timedSetup(cfg, func() (*served, error) { return startServed(cfg, nil) })
	if err != nil {
		return measured{}, err
	}
	defer s.close()
	ref, err := s.loop(cfg, nil, c)
	if err != nil {
		return measured{}, err
	}
	peak := peakRSSMB()
	m := measured{digests: map[uint64]map[string]string{}}
	walls := make([]time.Duration, len(ref))
	instrs := make([]uint64, len(ref))
	for i, j := range ref {
		t, err := artifactTally(j.art)
		if err != nil {
			return measured{}, err
		}
		walls[i], instrs[i] = j.wall, t.instrs()
		got := digests(j.bytes)
		m.digests[j.seed] = got
		if want, ok := pins.lookup(cfg.workload, j.seed); ok && !cfg.update {
			c.pinned(fmt.Sprintf("job seed %d", j.seed), got, want)
			continue
		}
		direct, err := s.direct(j.seed)
		if err != nil {
			return measured{}, err
		}
		c.same(fmt.Sprintf("job seed %d served vs direct", j.seed), j.bytes, direct)
	}
	var hits []time.Duration
	for _, j := range ref[:min(cacheHits, len(ref))] {
		lat, b, err := s.cacheHit(j.seed)
		c.check(err == nil, "cache hit for seed %d: %v", j.seed, err)
		if err == nil {
			c.same(fmt.Sprintf("job seed %d cache hit", j.seed), b, j.bytes)
			hits = append(hits, lat)
		}
	}
	if !cfg.traced {
		m.values = endToEnd(setup, walls, instrs, peak)
		return m, nil
	}

	m.ledger = newLedger()
	ts, err := startServed(cfg, m.ledger)
	if err != nil {
		return measured{}, err
	}
	defer ts.close()
	traced, err := ts.loop(cfg, m.ledger, c)
	if err != nil {
		return measured{}, err
	}
	byseed := map[uint64]jobOut{}
	for _, j := range ref {
		byseed[j.seed] = j
	}
	var layers []map[string]float64
	var tracedWalls []time.Duration
	for _, j := range traced {
		if r, ok := byseed[j.seed]; ok {
			c.same(fmt.Sprintf("job seed %d traced vs measured", j.seed), j.bytes, r.bytes)
		}
		v, err := servedLayers(m.ledger, j, medianDur(hits))
		if err != nil {
			return measured{}, err
		}
		layers = append(layers, v)
		tracedWalls = append(tracedWalls, j.wall)
	}
	m.values = medians(layers)
	m.values["trace.overhead_frac"] = medianDur(tracedWalls)/medianDur(walls) - 1
	return m, nil
}

// loop runs the closed loop of jobs for the measured time. Job k uses
// workload seed seed+k+1.
func (s *served) loop(cfg runConfig, l *ledger, c *checker) ([]jobOut, error) {
	var jobs []jobOut
	n := minJobs
	if cfg.smoke {
		n = 1
	}
	k := uint64(0)
	err := repeat(cfg.seconds, n, func() error {
		k++
		before := s.coord.Counters.Snapshot()
		alloc0, gc0 := runtimeCounters()
		j, err := s.job(l, cfg.seed+k)
		alloc1, gc1 := runtimeCounters()
		after := s.coord.Counters.Snapshot()
		c.check(err == nil, "job seed %d: %v", cfg.seed+k, err)
		if err == nil {
			j.attempts = after["shards_dispatched"] - before["shards_dispatched"]
			j.retries = after["shards_retried"] - before["shards_retried"]
			j.alloc, j.gcs = alloc1-alloc0, gc1-gc0
			jobs = append(jobs, j)
		}
		return nil
	})
	if err == nil && len(jobs) == 0 {
		err = fmt.Errorf("every served job failed")
	}
	return jobs, err
}

func (cfg runConfig) passes() int {
	if cfg.smoke {
		return 1
	}
	return minPasses
}

// repeat calls fn until d has passed and at least n calls ran. Each
// call starts from a collected heap, so that no pass pays for its
// predecessor's garbage.
func repeat(d time.Duration, n int, fn func() error) error {
	start := time.Now()
	for i := 0; i < n || time.Since(start) < d; i++ {
		runtime.GC()
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// timedSetup runs a workload's set-up several times, closing all but
// the last instance, and returns the median set-up time in seconds.
func timedSetup[T interface{ close() }](cfg runConfig, setup func() (T, error)) (float64, T, error) {
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var last T
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			last.close()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		ds = append(ds, time.Since(start).Seconds())
		last = v
	}
	return median(ds), last, nil
}

// endToEnd computes the end-to-end metrics of the measured section.
func endToEnd(setup float64, walls []time.Duration, instrs []uint64, peakMB float64) map[string]float64 {
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(instrs[i]) / 1e6 / w.Seconds()
	}
	return map[string]float64{
		"wall_s":       medianDur(walls),
		"minstr_per_s": median(rates),
		"peak_rss_mb":  peakMB,
		"setup_s":      setup,
	}
}

// peakRSSMB is the largest resident set of this process, or of any
// child it has waited for (the served workload's worker processes), in
// MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
