package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// validManifest is a minimal manifest the table cases below break one
// way each.
const validManifest = `{
  "command": ["bash", "bench/run.sh"],
  "paths": ["bench"],
  "run_seconds": 10,
  "workloads": [
    {"name": "hit", "why": "repeated keys"},
    {"name": "miss", "why": "distinct keys"}
  ],
  "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}
  ],
  "per_layer": [
    {"name": "cache.hits", "unit": "count", "better": "higher"}
  ]
}`

func TestParseManifest(t *testing.T) {
	cases := []struct {
		name, old, new string // replace old with new in validManifest
		ok             bool
	}{
		{"valid", "", "", true},
		{"truncated", `]
}`, "", false},
		{"empty", validManifest, "", false},
		{"trailing data", `]
}`, `]
} {}`, false},
		{"mistyped run_seconds", `"run_seconds": 10`, `"run_seconds": "10"`, false},
		{"mistyped bound", `"bound": 0.1`, `"bound": "0.1"`, false},
		{"unknown field", `"run_seconds": 10`, `"run_seconds": 10, "extra": 1`, false},
		{"duplicate metric", `"name": "wall_s"`, `"name": "setup_s"`, false},
		{"duplicate across kinds", `"name": "cache.hits"`, `"name": "wall_s"`, false},
		{"bad name", `"name": "wall_s"`, `"name": "wall s"`, false},
		{"name starts with a dot", `"name": "wall_s"`, `"name": ".wall_s"`, false},
		{"bad unit", `"unit": "count"`, `"unit": "count per second"`, false},
		{"bad direction", `"better": "higher"`, `"better": "up"`, false},
		{"missing bound", `, "bound": 0.1`, "", false},
		{"bound too wide", `"bound": 0.1`, `"bound": 0.5`, false},
		{"bound wider than setup_s", `"bound": 0.1`, `"bound": 0.25`, false},
		{"per-layer bound", `"better": "higher"}`, `"better": "higher", "bound": 0.1}`, false},
		{"no setup_s", `"name": "setup_s"`, `"name": "init_s"`, false},
		{"one workload", `,
    {"name": "miss", "why": "distinct keys"}`, "", false},
		{"multi-line why", `"why": "repeated keys"`, `"why": "repeated\nkeys"`, false},
		{"absolute command path", `"bench/run.sh"`, `"/bench/run.sh"`, false},
		{"path leaves the repo", `"paths": ["bench"]`, `"paths": ["bench/../.."]`, false},
		{"run_seconds out of range", `"run_seconds": 10`, `"run_seconds": 61`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := validManifest
			if tc.old != "" {
				if !strings.Contains(src, tc.old) {
					t.Fatalf("case does not apply: %q not in the manifest", tc.old)
				}
				src = strings.Replace(src, tc.old, tc.new, 1)
			}
			m, err := parseManifest([]byte(src))
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("accepted %+v", m)
			}
		})
	}
}

func TestParseManifestTooManyMetrics(t *testing.T) {
	var layers []string
	for i := 0; i <= maxPerLayer; i++ {
		layers = append(layers, fmt.Sprintf(`{"name": "m%d", "unit": "s", "better": "lower"}`, i))
	}
	src := strings.Replace(validManifest, `{"name": "cache.hits", "unit": "count", "better": "higher"}`, strings.Join(layers, ",\n"), 1)
	if _, err := parseManifest([]byte(src)); err == nil {
		t.Fatalf("accepted %d per-layer metrics", len(layers))
	}
}

// TestRepositoryManifest pins BENCHMARK.json to the metric sets the
// driver computes.
func TestRepositoryManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []metricDecl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	want := append([]string(nil), layerNames...)
	sort.Strings(want)
	if got := names(m.PerLayer); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per_layer declares %v, the driver computes %v", got, want)
	}
	if got := names(m.EndToEnd); strings.Join(got, " ") != "minstr_per_s peak_rss_mb setup_s wall_s" {
		t.Errorf("end_to_end declares %v", got)
	}
	for _, w := range []string{"paper-grid", "short-interval", "protocol-mix", "served"} {
		if !m.hasWorkload(w) {
			t.Errorf("workload %s not declared", w)
		}
	}
}

const validResult = `{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.25, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"}}}`

func TestParseResult(t *testing.T) {
	m, err := parseManifest([]byte(validManifest))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, old, new string
		ok             bool
	}{
		{"valid", "", "", true},
		{"truncated", `"unit": "s"}}}`, `"unit": "s"}}`, false},
		{"trailing garbage", `"unit": "s"}}}`, `"unit": "s"}}}x`, false},
		{"mistyped value", `"value": 1.25`, `"value": "1.25"`, false},
		{"mistyped attempted", `"attempted": 3`, `"attempted": 3.5`, false},
		{"duplicate metric", `"setup_s": {"value": 0.5`, `"wall_s": {"value": 0.5`, false},
		{"missing metric", `, "setup_s": {"value": 0.5, "unit": "s"}`, "", false},
		{"undeclared metric", `"setup_s"`, `"init_s"`, false},
		{"wrong unit", `"value": 1.25, "unit": "s"`, `"value": 1.25, "unit": "ms"`, false},
		{"unknown field", `"failed": 0,`, `"failed": 0, "extra": 1,`, false},
		{"missing correct", `"correct": true, `, "", false},
		{"nothing attempted", `"attempted": 3`, `"attempted": 0`, false},
		{"correct despite failures", `"failed": 0`, `"failed": 1`, false},
		{"more failed than attempted", `"correct": true, "attempted": 3, "failed": 0`, `"correct": false, "attempted": 3, "failed": 4`, false},
		{"metrics not an object", `"metrics": {"wall_s": {"value": 1.25, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"}}`, `"metrics": []`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := validResult
			if tc.old != "" {
				if !strings.Contains(src, tc.old) {
					t.Fatalf("case does not apply: %q not in the result", tc.old)
				}
				src = strings.Replace(src, tc.old, tc.new, 1)
			}
			r, err := parseResult([]byte(src), m, false)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("accepted %+v", r)
			}
		})
	}
	// Per-layer results are checked against the per-layer declarations.
	if _, err := parseResult([]byte(validResult), m, true); err == nil {
		t.Error("end-to-end metrics accepted as a traced result")
	}
}
