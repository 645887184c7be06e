package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Output pins. bench/digests.json holds the SHA-256 of every encoder's
// bytes per workload, seed and "grid/format" (for served, per job seed),
// so a host-only speed-up that moves any simulated statistic fails the
// run. Seeds without pins are checked against an independent path
// instead (see checkOutputs).

// pinSet is workload → seed → "grid/format" → SHA-256 (hex).
type pinSet map[string]map[string]map[string]string

func loadPins(path string) (pinSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pinSet
	if err := decodeStrict(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func (p pinSet) lookup(workload string, seed uint64) (map[string]string, bool) {
	want, ok := p[workload][strconv.FormatUint(seed, 10)]
	return want, ok
}

func (p pinSet) set(workload string, seed uint64, digests map[string]string) {
	if p[workload] == nil {
		p[workload] = map[string]map[string]string{}
	}
	p[workload][strconv.FormatUint(seed, 10)] = digests
}

func (p pinSet) save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digests(out map[string][]byte) map[string]string {
	d := make(map[string]string, len(out))
	for k, b := range out {
		sum := sha256.Sum256(b)
		d[k] = hex.EncodeToString(sum[:])
	}
	return d
}

// checker counts the run's correctness checks: every cell and job
// attempted, and every comparison of output bytes.
type checker struct {
	attempted, failed int
	log               io.Writer
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "bench: FAIL: "+format+"\n", args...)
	}
}

// cells counts a pass's cells, failed ones against the run.
func (c *checker) cells(t *tally) {
	c.attempted += t.cells
	c.failed += t.failed
	if t.failed > 0 {
		fmt.Fprintf(c.log, "bench: FAIL: %d of %d cells failed\n", t.failed, t.cells)
	}
}

// same compares two renderings format by format.
func (c *checker) same(what string, got, want map[string][]byte) {
	for _, k := range unionKeys(got, want) {
		g, okG := got[k]
		w, okW := want[k]
		c.check(okG && okW && bytes.Equal(g, w), "%s: %s differs", what, k)
	}
}

// pinned compares a rendering's digests with its pins.
func (c *checker) pinned(what string, got, want map[string]string) {
	for _, k := range unionKeys(got, want) {
		c.check(got[k] != "" && got[k] == want[k], "%s: %s digest %.12s, pinned %.12s", what, k, got[k], want[k])
	}
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
