// Command benchab compares the repository benchmark (BENCHMARK.json,
// bench/run.sh) between a base revision and the working tree. It
// exports the base revision with git archive under the gitignored
// .bench_build/ab/, then runs `bash bench/run.sh` in both trees in
// alternating pairs, reversing the order every pair so that neither
// side always runs second. For each workload and end-to-end metric it
// prints both sides' median and interquartile range and the number of
// pairs the working tree won. It exits 1 when a working-tree median is
// worse than the base median by more than the metric's bound, or when
// any run reports incorrect output. Run it from the repository root:
//
//	go run ./cmd/benchab -base HEAD~1 -workloads paper-grid -pairs 10 -seed 1
//
// or through `make bench-ab BASE=<rev> [WORKLOADS=…] [PAIRS=10] [SEED=1]`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json this tool reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric: its direction and the largest
// relative worsening the benchmark tolerates.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is one bench/run.sh output line.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		base      = flag.String("base", "", "base revision to compare the working tree against (required)")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
		pairs     = flag.Int("pairs", 10, "alternating base/head run pairs per workload")
		seed      = flag.Uint64("seed", 1, "bench input seed")
	)
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab -base <rev> [-workloads a,b] [-pairs 10] [-seed 1]")
		os.Exit(2)
	}
	ok, err := run(*base, *workloads, *pairs, *seed, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(base, workloadList string, pairs int, seed uint64, out, log io.Writer) (bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if workloadList != "" {
		names = strings.Split(workloadList, ",")
	}
	baseDir, err := export(base)
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range names {
		runs := map[string][]result{}
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
				r, err := benchOnce(dir, w, seed)
				if err != nil {
					return false, fmt.Errorf("%s %s: %w", w, side, err)
				}
				fmt.Fprintf(log, "benchab: %s pair %d/%d %s:", w, i+1, pairs, side)
				for _, m := range man.EndToEnd {
					fmt.Fprintf(log, " %s=%.6g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Fprintln(log)
				if !r.Correct {
					fmt.Fprintf(out, "%s: %s run %d reported incorrect output\n", w, side, i+1)
					ok = false
				}
				runs[side] = append(runs[side], r)
			}
		}
		fmt.Fprintf(out, "\n%s (seed %d, %d pairs, base %s)\n\n", w, seed, pairs, base)
		fmt.Fprintln(out, "| metric | base median (IQR) | head median (IQR) | change | head wins | verdict |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|")
		for _, m := range man.EndToEnd {
			c := compare(m, values(runs["base"], m.Name), values(runs["head"], m.Name))
			fmt.Fprintln(out, c.row(m))
			if c.regressed {
				ok = false
			}
		}
	}
	return ok, nil
}

// export writes the base revision's tree to .bench_build/ab/<commit>
// and returns that directory; a tree exported by an earlier comparison
// is reused, build cache included. git archive leaves the repository's
// worktree list and index untouched, and the tree is extracted beside
// its final name and renamed into place, so an interrupted comparison
// leaves nothing behind but gitignored files.
func export(rev string) (string, error) {
	sha, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolve %q: %w", rev, err)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "ab", strings.TrimSpace(string(sha))))
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
	cmd := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", rev, tmp)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("export %q: %w", rev, err)
	}
	return dir, os.Rename(tmp, dir)
}

// benchOnce runs one untraced benchmark in dir and parses its line.
func benchOnce(dir, workload string, seed uint64) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var r result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &r); err != nil {
		return r, fmt.Errorf("no result line (%v): %s", runErr, stderr.String())
	}
	return r, nil
}

func values(rs []result, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
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
