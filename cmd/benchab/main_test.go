package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMedianIQR(t *testing.T) {
	med, iqr := medianIQR([]float64{5, 1, 4, 2, 3})
	if med != 3 || iqr != 2 {
		t.Errorf("odd: median %v IQR %v, want 3 and 2", med, iqr)
	}
	med, iqr = medianIQR([]float64{4, 1, 3, 2})
	if med != 2.5 || iqr != 1.5 {
		t.Errorf("even: median %v IQR %v, want 2.5 and 1.5", med, iqr)
	}
	if med, _ := medianIQR(nil); !math.IsNaN(med) {
		t.Errorf("empty: median %v, want NaN", med)
	}
}

func TestCompare(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "minstr_per_s", Better: "higher", Bound: 0.25}
	tableIMetric := tableISpecs(sample{metrics: map[string]float64{"TableI_NetworkSend": 1}})[0]
	cases := []struct {
		name       string
		m          metricSpec
		base, head []float64
		wins       int
		regressed  bool
	}{
		{"lower improves", lower, []float64{10, 11, 12}, []float64{5, 6, 13}, 2, false},
		{"lower within bound", lower, []float64{10, 10, 10}, []float64{12, 12, 12}, 0, false},
		{"lower beyond bound", lower, []float64{10, 10, 10}, []float64{13, 13, 13}, 0, true},
		{"higher improves", higher, []float64{10, 10, 10}, []float64{11, 9, 12}, 2, false},
		{"higher beyond bound", higher, []float64{10, 10, 10}, []float64{7, 7, 7}, 0, true},
		{"table I within bound", tableIMetric, []float64{100, 100, 100}, []float64{109, 109, 109}, 0, false},
		{"table I beyond bound", tableIMetric, []float64{100, 100, 100}, []float64{111, 111, 111}, 0, true},
	}
	for _, c := range cases {
		got := compare(c.m, c.base, c.head)
		if got.wins != c.wins || got.regressed != c.regressed || got.pairs != len(c.base) {
			t.Errorf("%s: wins %d/%d regressed %v, want %d/%d %v",
				c.name, got.wins, got.pairs, got.regressed, c.wins, len(c.base), c.regressed)
		}
	}
}

// TestValuesMissingMetricIsAnError checks that a metric absent from a
// run's result (a base that predates a metric the manifest now names)
// fails the comparison, naming the side, series and metric, instead of
// reading as 0.
func TestValuesMissingMetricIsAnError(t *testing.T) {
	full := sample{correct: true, metrics: map[string]float64{"wall_s": 2, "setup_s": 0.5}}
	old := sample{correct: true, metrics: map[string]float64{"wall_s": 2}}
	runs := map[string][]sample{"base": {full, old}, "head": {full, full}}
	if _, _, err := values(runs, "paper-grid", "setup_s"); err == nil {
		t.Fatal("a base run without setup_s compared as 0")
	} else {
		for _, want := range []string{"paper-grid", "base", "run 2", "setup_s"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
	runs = map[string][]sample{"base": {full, full}, "head": {full, old}}
	if _, _, err := values(runs, "paper-grid", "setup_s"); err == nil || !strings.Contains(err.Error(), "head") {
		t.Errorf("a head run without setup_s: err %v, want one naming the head side", err)
	}
	base, head, err := values(runs, "paper-grid", "wall_s")
	if err != nil || !reflect.DeepEqual(base, []float64{2, 2}) || !reflect.DeepEqual(head, []float64{2, 2}) {
		t.Errorf("wall_s: base %v head %v err %v, want [2 2] [2 2] nil", base, head, err)
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: dsmphase
cpu: Intel(R) Xeon(R) Processor
BenchmarkTableI_MachineThroughput/8P-2         	      14	  71553495 ns/op	        17.04 Minstr/s	 1934085 B/op	    1342 allocs/op
BenchmarkTableI_MachineThroughput/32P/ivy-2    	      21	  54275764 ns/op	        22.48 Minstr/s	 3978713 B/op	    3401 allocs/op
BenchmarkTableI_NetworkSend-2                  	51213424	        21.91 ns/op	       0 B/op	       0 allocs/op
BenchmarkTableI_NetworkSend
PASS
ok  	dsmphase	9.729s
`
	s, err := parseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"TableI_MachineThroughput/8P":      71553495,
		"TableI_MachineThroughput/32P/ivy": 54275764,
		"TableI_NetworkSend":               21.91,
	}
	if !s.correct || !reflect.DeepEqual(s.metrics, want) {
		t.Errorf("parsed %+v, want %v", s, want)
	}
	if _, err := parseGoBench(strings.NewReader("PASS\nok  \tdsmphase\t0.01s\n")); err == nil {
		t.Error("output without a benchmark line parsed")
	}
}

// TestAppendEntryKeepsEarlier checks the trajectory file grows by one
// entry per append: a missing file is created, and earlier entries —
// fields this version does not write included — survive an append.
func TestAppendEntryKeepsEarlier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_e2e.json")
	first := entry{BaseCommit: "a", HeadCommit: "b", CPU: "cpu", Seed: 1, Pairs: 10,
		Workloads: map[string]map[string]summary{"short-interval": {"wall_s": {1.2, 0.1, 0.9, 0.05, 10}}}}
	if err := appendEntry(path, first); err != nil {
		t.Fatal(err)
	}
	// An older writer's entry with a field this version has no name for.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	entries[0]["note"] = "kept"
	if data, err = json.Marshal(entries); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	second := first
	second.BaseCommit, second.HeadCommit = "b", "c"
	if err := appendEntry(path, second); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		entry
		Note string `json:"note"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d entries after two appends, want 2:\n%s", len(got), data)
	}
	if got[0].Note != "kept" || got[0].BaseCommit != "a" || got[1].BaseCommit != "b" || got[1].HeadCommit != "c" {
		t.Errorf("entries not kept in order:\n%s", data)
	}
	if w := got[0].Workloads["short-interval"]["wall_s"]; w != first.Workloads["short-interval"]["wall_s"] {
		t.Errorf("first entry's wall_s summary = %+v, want %+v", w, first.Workloads["short-interval"]["wall_s"])
	}
}

func TestAppendEntryRejectsNonArray(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_e2e.json")
	if err := os.WriteFile(path, []byte(`{"runs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendEntry(path, entry{}); err == nil {
		t.Fatal("appended to a file that is not a JSON array")
	}
	if data, _ := os.ReadFile(path); string(data) != `{"runs": []}` {
		t.Errorf("file changed to %s", data)
	}
}
