// Command benchab compares the repository's performance between a base
// revision and the working tree, in paired runs on one host. It exports
// the base revision with git archive under the gitignored
// .bench_build/ab/ and measures two series in both trees:
//
//   - the repository benchmark (BENCHMARK.json, `bash bench/run.sh`),
//     one workload at a time, on its end-to-end metrics and their
//     bounds;
//   - the Table I micro-benchmarks (`go test -bench '^BenchmarkTableI_'`),
//     on each sub-benchmark's ns/op, with a 10% bound.
//
// Runs alternate in pairs, reversing the order every pair so that
// neither side always runs second. For each metric it prints both
// sides' median and interquartile range and the number of pairs the
// working tree won. It exits 1 when a working-tree median is worse than
// the base median by more than the metric's bound, or when any
// workload run reports incorrect output. Run it from the repository
// root:
//
//	go run ./cmd/benchab -base HEAD~1 -workloads paper-grid -pairs 10 -seed 1
//
// or through `make bench-ab BASE=<rev> [WORKLOADS=…] [PAIRS=10] [SEED=1]`.
//
// With -record <file> it also appends the comparison as one entry to
// the JSON array in file (created if missing), keeping the entries
// already there: the committed perf trajectory BENCH_e2e.json is built
// this way, one entry per performance change.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// tableI is the series name of the Table I micro-benchmarks, in the
// printed tables and the recorded entry.
const tableI = "table-i"

// tableIBound is the largest relative ns/op slowdown of a Table I
// sub-benchmark's median that passes.
const tableIBound = 0.10

// manifest is the part of BENCHMARK.json this tool reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one compared metric: its direction and the largest
// relative worsening that passes.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// sample is one run of a series: a bench/run.sh result line, or the
// ns/op of every Table I sub-benchmark.
type sample struct {
	correct bool
	metrics map[string]float64
}

func main() {
	var (
		base      = flag.String("base", "", "base revision to compare the working tree against (required)")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
		pairs     = flag.Int("pairs", 10, "alternating base/head run pairs per workload")
		seed      = flag.Uint64("seed", 1, "bench input seed")
		record    = flag.String("record", "", "append the comparison as one entry to this JSON trajectory file")
	)
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base <rev> [-workloads a,b] [-pairs 10] [-seed 1] [-record file]")
		os.Exit(2)
	}
	ok, e, err := run(*base, *workloads, *pairs, *seed, os.Stdout, os.Stderr)
	if err == nil && *record != "" {
		err = appendEntry(*record, e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// entry is one comparison in a trajectory file.
type entry struct {
	// BaseCommit is the base revision. HeadCommit is the working tree's
	// HEAD; HeadDirty says the working tree differed from it (changed
	// or untracked files), and the working tree is what was measured.
	BaseCommit string `json:"base_commit"`
	HeadCommit string `json:"head_commit"`
	HeadDirty  bool   `json:"head_dirty"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	Seed       uint64 `json:"seed"`
	Pairs      int    `json:"pairs"`
	// Workloads maps workload → end-to-end metric → summary, and
	// "table-i" → Table I sub-benchmark → ns/op summary.
	Workloads map[string]map[string]summary `json:"workloads"`
}

// summary is one metric's paired comparison.
type summary struct {
	BaseMedian float64 `json:"base_median"`
	BaseIQR    float64 `json:"base_iqr"`
	HeadMedian float64 `json:"head_median"`
	HeadIQR    float64 `json:"head_iqr"`
	HeadWins   int     `json:"head_wins"`
}

func run(base, workloadList string, pairs int, seed uint64, out, log io.Writer) (bool, entry, error) {
	e := entry{CPU: hostCPU(), NumCPU: runtime.NumCPU(), Seed: seed, Pairs: pairs,
		Workloads: map[string]map[string]summary{}}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, e, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return false, e, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if workloadList != "" {
		names = strings.Split(workloadList, ",")
	}
	if e.BaseCommit, err = gitOutput("rev-parse", "--verify", base+"^{commit}"); err != nil {
		return false, e, err
	}
	baseDir, err := export(e.BaseCommit)
	if err != nil {
		return false, e, err
	}
	if e.HeadCommit, err = gitOutput("rev-parse", "HEAD"); err != nil {
		return false, e, err
	}
	status, err := gitOutput("status", "--porcelain")
	if err != nil {
		return false, e, err
	}
	e.HeadDirty = status != ""
	ok := true
	for _, w := range names {
		runs, err := pairRuns(w, pairs, baseDir, log, func(dir string) (sample, error) { return benchOnce(dir, w, seed) })
		if err != nil {
			return false, e, err
		}
		for _, side := range []string{"base", "head"} {
			for i, r := range runs[side] {
				if !r.correct {
					fmt.Fprintf(out, "%s: %s run %d reported incorrect output\n", w, side, i+1)
					ok = false
				}
			}
		}
		header := fmt.Sprintf("%s (seed %d, %d pairs, base %s)", w, seed, pairs, base)
		passed, err := compareTable(out, header, man.EndToEnd, runs, w, e.Workloads)
		if err != nil {
			return false, e, err
		}
		ok = ok && passed
	}
	runs, err := pairRuns(tableI, pairs, baseDir, log, goBenchOnce)
	if err != nil {
		return false, e, err
	}
	header := fmt.Sprintf("%s (go test -bench '^BenchmarkTableI_' -benchtime 1s, %d pairs, base %s)", tableI, pairs, base)
	passed, err := compareTable(out, header, tableISpecs(runs["head"][0]), runs, tableI, e.Workloads)
	if err != nil {
		return false, e, err
	}
	return ok && passed, e, nil
}

// pairRuns runs one series pairs times in each tree, alternating which
// side goes first, and returns the samples per side ("base", "head"),
// pair i at index i.
func pairRuns(series string, pairs int, baseDir string, log io.Writer, once func(dir string) (sample, error)) (map[string][]sample, error) {
	runs := map[string][]sample{}
	for i := 0; i < pairs; i++ {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, side := range order {
			dir := "."
			if side == "base" {
				dir = baseDir
			}
			r, err := once(dir)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", series, side, err)
			}
			fmt.Fprintf(log, "benchab: %s pair %d/%d %s:", series, i+1, pairs, side)
			for _, name := range sortedKeys(r.metrics) {
				fmt.Fprintf(log, " %s=%.6g", name, r.metrics[name])
			}
			fmt.Fprintln(log)
			runs[side] = append(runs[side], r)
		}
	}
	return runs, nil
}

// compareTable prints one series' comparison table under header,
// stores each metric's summary in recorded[series], and reports
// whether every metric stayed within its bound.
func compareTable(out io.Writer, header string, specs []metricSpec, runs map[string][]sample, series string, recorded map[string]map[string]summary) (bool, error) {
	fmt.Fprintf(out, "\n%s\n\n", header)
	fmt.Fprintln(out, "| metric | base median (IQR) | head median (IQR) | change | head wins | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|")
	recorded[series] = map[string]summary{}
	ok := true
	for _, m := range specs {
		base, head, err := values(runs, series, m.Name)
		if err != nil {
			return false, err
		}
		c := compare(m, base, head)
		fmt.Fprintln(out, c.row(m))
		ok = ok && !c.regressed
		recorded[series][m.Name] = summary{c.baseMed, c.baseIQR, c.headMed, c.headIQR, c.wins}
	}
	return ok, nil
}

// tableISpecs compares every Table I sub-benchmark a working-tree run
// reported on ns/op, with the Table I bound; values fails on one a base
// run lacks.
func tableISpecs(head sample) []metricSpec {
	var specs []metricSpec
	for _, name := range sortedKeys(head.metrics) {
		specs = append(specs, metricSpec{Name: name, Unit: "ns/op", Better: "lower", Bound: tableIBound})
	}
	return specs
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendEntry appends e to the JSON array in path, creating the file
// when it does not exist. Earlier entries are kept as they are, fields
// this version does not know included; a file that is not a JSON array
// is an error and is left untouched.
func appendEntry(path string, e entry) error {
	var entries []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(append(entries, raw), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// hostCPU names the host's processor model, as /proc/cpuinfo reports
// it, or the platform where that file is absent.
func hostCPU() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export writes the tree of commit sha to .bench_build/ab/<sha> and
// returns that directory; a tree exported by an earlier comparison is
// reused, build cache included. git archive leaves the repository's
// worktree list and index untouched, and the tree is extracted beside
// its final name and renamed into place, so an interrupted comparison
// leaves nothing behind but gitignored files.
func export(sha string) (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "ab", sha))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".partial"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", sha, tmp)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("export %s: %w", sha, err)
	}
	return dir, os.Rename(tmp, dir)
}

// benchOnce runs one untraced benchmark in dir and parses its line.
func benchOnce(dir, workload string, seed uint64) (sample, error) {
	stdout, stderr, runErr := runIn(dir, "bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--trace", "0")
	var r struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &r); err != nil {
		return sample{}, fmt.Errorf("no result line (%v): %s", runErr, stderr)
	}
	s := sample{correct: r.Correct, metrics: map[string]float64{}}
	for name, v := range r.Metrics {
		s.metrics[name] = v.Value
	}
	return s, nil
}

// goBenchOnce runs the Table I micro-benchmarks once in dir.
func goBenchOnce(dir string) (sample, error) {
	stdout, stderr, err := runIn(dir, "go", "test", "-run", "^$", "-bench", "^BenchmarkTableI_", "-benchtime", "1s", ".")
	if err != nil {
		return sample{}, fmt.Errorf("go test -bench: %v: %s%s", err, stdout, stderr)
	}
	return parseGoBench(bytes.NewReader(stdout))
}

func runIn(dir, name string, args ...string) (stdout, stderr []byte, err error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	return o.Bytes(), e.Bytes(), err
}

// parseGoBench reads `go test -bench` output into a sample of each
// benchmark's ns/op, keyed by its name without the "Benchmark" prefix
// and the -GOMAXPROCS suffix.
func parseGoBench(in io.Reader) (sample, error) {
	s := sample{correct: true, metrics: map[string]float64{}}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return s, fmt.Errorf("benchmark line %q: %w", sc.Text(), err)
		}
		s.metrics[name] = v
	}
	if len(s.metrics) == 0 {
		return s, fmt.Errorf("no benchmark reported ns/op")
	}
	return s, sc.Err()
}

// values returns one metric's per-pair values on each side. A metric
// missing from a run is an error naming the side, the series and the
// metric: read as 0 it would turn into a fake win or a fake regression,
// as it would when the base predates a metric the manifest now names.
func values(runs map[string][]sample, series, metric string) (base, head []float64, err error) {
	get := func(side string) ([]float64, error) {
		xs := make([]float64, len(runs[side]))
		for i, r := range runs[side] {
			v, ok := r.metrics[metric]
			if !ok {
				return nil, fmt.Errorf("%s %s run %d: no %q in its result", series, side, i+1, metric)
			}
			xs[i] = v
		}
		return xs, nil
	}
	if base, err = get("base"); err != nil {
		return nil, nil, err
	}
	if head, err = get("head"); err != nil {
		return nil, nil, err
	}
	return base, head, nil
}

// comparison is one metric's base-vs-head summary.
type comparison struct {
	baseMed, baseIQR float64
	headMed, headIQR float64
	wins, pairs      int
	// worse is how much worse the head median is than the base median
	// (negative when it is better), in the metric's unit.
	worse     float64
	regressed bool
}

// compare summarizes paired runs: pair i is base[i] against head[i]. A
// head median worse than the base median by more than the metric's
// relative bound is a regression.
func compare(m metricSpec, base, head []float64) comparison {
	c := comparison{pairs: len(base)}
	c.baseMed, c.baseIQR = medianIQR(base)
	c.headMed, c.headIQR = medianIQR(head)
	lower := m.Better == "lower"
	for i := range base {
		if (lower && head[i] < base[i]) || (!lower && head[i] > base[i]) {
			c.wins++
		}
	}
	c.worse = c.headMed - c.baseMed
	if !lower {
		c.worse = -c.worse
	}
	c.regressed = c.worse > m.Bound*math.Abs(c.baseMed)
	return c
}

func (c comparison) row(m metricSpec) string {
	change := math.NaN()
	if c.baseMed != 0 {
		change = 100 * (c.headMed - c.baseMed) / c.baseMed
	}
	verdict := "within bound"
	switch {
	case c.regressed:
		verdict = fmt.Sprintf("WORSE beyond %.0f%% bound", 100*m.Bound)
	case c.wins*10 >= 9*c.pairs && -c.worse > c.baseIQR:
		verdict = "better (≥9/10 wins, gap > base IQR)"
	case max(c.baseIQR, c.headIQR) > m.Bound*math.Abs(c.baseMed):
		verdict = "unresolved (spread exceeds bound)"
	}
	return fmt.Sprintf("| %s (%s) | %.4g (%.3g) | %.4g (%.3g) | %+.1f%% | %d/%d | %s |",
		m.Name, m.Unit, c.baseMed, c.baseIQR, c.headMed, c.headIQR, change, c.wins, c.pairs, verdict)
}

// medianIQR returns the median and the interquartile range of xs, with
// quantiles linearly interpolated between order statistics.
func medianIQR(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}
