package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var experimentsBin string

// TestMain builds the served workload's worker binary, as the service
// package's own tests do.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", experimentsBin, "dsmphase/cmd/experiments").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building experiments worker: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWorkloadsSmoke runs every workload at the reduced scale, untraced
// and traced, and requires a correct result carrying every declared
// metric with its unit. The seed has no pins, so the untraced runs make
// their cross-checks — the 2-shard merge against the unsharded engine,
// served reports against direct Spec.Run — and the traced runs compare
// the decomposed bytes with the measured ones. The in-process workloads
// run the short ingested pingpong trace, the served one fmm, the
// cheapest application its worker binary knows.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := registerMixWorkloads("testdata"); err != nil {
		t.Fatal(err)
	}
	for _, w := range man.Workloads {
		apps := []string{"pingpong"}
		if w.Name == "served" {
			apps = []string{"fmm"}
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				cfg := runConfig{workload: w.Name, seed: 1000, traced: traced, root: "..", workerBin: experimentsBin, apps: apps, smoke: true}
				var log strings.Builder
				res, _, err := runBench(cfg, 0, "", &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				for _, d := range man.metrics(traced) {
					if got := res.Metrics[d.Name].Unit; got != d.Unit {
						t.Errorf("%s emitted in %q, declared %q", d.Name, got, d.Unit)
					}
				}
				if traced && w.Name != "served" && res.Metrics["trace.coverage"].Value < coverage {
					t.Errorf("trace coverage %.3f", res.Metrics["trace.coverage"].Value)
				}
			})
		}
	}
}

// TestCheckerCountsMismatches makes sure a rendering that differs from the
// measured bytes is counted as a failure, not passed over.
func TestCheckerCountsMismatches(t *testing.T) {
	c := &checker{log: io.Discard}
	c.same("test", map[string][]byte{"g/text": []byte("a")}, map[string][]byte{"g/text": []byte("b")})
	c.same("test", map[string][]byte{"g/text": []byte("a")}, map[string][]byte{"g/csv": []byte("a")})
	c.pinned("test", digests(map[string][]byte{"g/text": []byte("a")}), map[string]string{"g/text": "00"})
	if c.attempted != 4 || c.failed != 4 {
		t.Fatalf("attempted %d, failed %d; want 4 and 4", c.attempted, c.failed)
	}
}

// TestRunUsage covers the command line's refusals.
func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--workload", "nope", "--root", ".."},
		{"--workload", "served", "--root", "..", "--seconds", "1"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
