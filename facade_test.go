package dsmphase_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dsmphase"
)

// Facade tests: the public flows route to their internal
// implementations, and the facade exports nothing without a user.

func TestFacadeFigures(t *testing.T) {
	gp := dsmphase.GridParams{
		Apps:     []string{"lu"},
		Size:     dsmphase.SizeTest,
		Interval: 20_000,
		Seed:     1,
	}
	curves := func(name string) []dsmphase.CurveResult {
		g, err := dsmphase.BuildGrid(name, gp)
		if err != nil {
			t.Fatal(err)
		}
		rep := g.Spec.Run(dsmphase.EngineOptions{Parallel: 4})
		if err := rep.FirstError(); err != nil {
			t.Fatal(err)
		}
		return rep.Curves()
	}
	if fig2 := curves("figure2"); len(fig2) != 3 {
		t.Fatalf("figure2 = %d curves, want 3", len(fig2))
	}
	fig4 := curves("figure4")
	if len(fig4) != 4 {
		t.Fatalf("figure4 = %d curves, want 4", len(fig4))
	}
	var buf bytes.Buffer
	if err := dsmphase.WriteFigure(&buf, "t", fig4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lu 8P") {
		t.Error("figure output missing curve label")
	}
}

func TestFacadePredictors(t *testing.T) {
	seq := []int{0, 1, 0, 1, 0, 1}
	for _, p := range []dsmphase.Predictor{
		dsmphase.NewLastPhasePredictor(),
		dsmphase.NewMarkovPredictor(),
		dsmphase.NewRunLengthPredictor(8),
	} {
		a := dsmphase.PredictorAccuracy(p, seq)
		if a < 0 || a > 1 {
			t.Errorf("%s accuracy = %v", p.Name(), a)
		}
	}
}

// TestFacadeRunTuning exercises the public closed-loop surface: the
// tuning Spec axes, a tuning grid through RunGrids and AssembleTuning,
// and a tuning encoder, end to end on a real tiny simulation.
func TestFacadeRunTuning(t *testing.T) {
	spec := dsmphase.NewSpec(
		dsmphase.WithApps("lu"),
		dsmphase.WithProcs(2),
		dsmphase.WithSize(dsmphase.SizeTest),
		dsmphase.WithInterval(20_000),
		dsmphase.WithPredictors("last-phase"),
		dsmphase.WithControllers(dsmphase.ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	)
	results, _, err := dsmphase.RunGrids([]dsmphase.NamedGrid{{Name: "tuning", Tuning: true, Spec: spec}},
		0, 1, dsmphase.EngineOptions{Parallel: 2}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.AssembleTuning(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 1 {
		t.Fatalf("%d scorecard rows, want 1", len(rep.Configs))
	}
	row := rep.Configs[0]
	if row.WinRate.Mean < 0 || row.WinRate.Mean > 1 {
		t.Errorf("win rate = %v", row.WinRate.Mean)
	}
	var buf bytes.Buffer
	enc, err := dsmphase.NewTuningEncoder("markdown", "facade")
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "| baseline | lu | 2 | BBV | last-phase | trial-1 |") {
		t.Errorf("scorecard row missing:\n%s", buf.String())
	}
}

// TestFacadeTuningCostModel checks the exported cost-model helpers.
func TestFacadeTuningCostModel(t *testing.T) {
	rc := quickRC(2)
	m, sum, err := dsmphase.Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	costs := dsmphase.TuningCosts(m.RecordsByProc()[0])
	if len(costs) != dsmphase.TuningHardwareConfigs {
		t.Fatalf("%d cost rows, want %d", len(costs), dsmphase.TuningHardwareConfigs)
	}
	c := dsmphase.SweepMachine(m, rc, dsmphase.DetectorBBV, sum)
	thBBV, _ := dsmphase.OperatingPoint(c.Curve, dsmphase.DefaultPhaseBudget)
	if thBBV <= 0 {
		t.Errorf("operating threshold = %v", thBBV)
	}
}

func TestFacadeOverheadScaling(t *testing.T) {
	o := dsmphase.PaperOverheadConfig()
	small, large := o, o
	small.Processors, large.Processors = 8, 32
	if small.BandwidthPerProcessor() >= large.BandwidthPerProcessor() {
		t.Error("overhead must grow with system size")
	}
	if math.Abs(o.IntervalSeconds()-0.05) > 1e-12 {
		t.Errorf("interval = %v s", o.IntervalSeconds())
	}
	if o.FractionOfController() <= 0 {
		t.Error("fraction must be positive")
	}
}

func TestFacadeDetectorKinds(t *testing.T) {
	for kind, want := range map[dsmphase.DetectorKind]string{
		dsmphase.DetectorBBV:    "BBV",
		dsmphase.DetectorBBVDDV: "BBV+DDV",
	} {
		if kind.String() != want {
			t.Errorf("kind %d = %q, want %q", kind, kind.String(), want)
		}
	}
}

// TestFacadeHasUsers keeps dsmphase.go sized to its callers. Every
// exported identifier must be written as dsmphase.X in a command
// (cmd/), an example program, a godoc example (example_test.go) or a
// documentation page (README.md, DESIGN.md, docs/*.md,
// examples/*/README.md), or be named by the declaration of one that
// is. This file and dsmphase_test.go are not users: a re-export whose
// only caller is its own test belongs in the internal package.
func TestFacadeHasUsers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "dsmphase.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// mentions maps each exported identifier to the identifiers its
	// declaration names; a qualified name (harness.X) is internal.
	mentions := map[string][]string{}
	for name, obj := range f.Scope.Objects {
		if !ast.IsExported(name) {
			continue
		}
		ast.Inspect(obj.Decl.(ast.Node), func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[name] = append(mentions[name], id.Name)
			}
			_, qualified := n.(*ast.SelectorExpr)
			return !qualified
		})
	}

	used := map[string]bool{}
	ref := regexp.MustCompile(`dsmphase\.([A-Z]\w*)`)
	for _, pattern := range []string{"cmd/*/*.go", "examples/*/*.go", "example_test.go",
		"README.md", "DESIGN.md", "docs/*.md", "examples/*/README.md"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ref.FindAllSubmatch(src, -1) {
				used[string(m[1])] = true
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for name := range used {
			for _, m := range mentions[name] {
				if _, exported := mentions[m]; exported && !used[m] {
					used[m], grew = true, true
				}
			}
		}
	}

	var unused []string
	for name := range mentions {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("dsmphase.go exports %d identifiers with no user; delete them or call the internal package: %s",
			len(unused), strings.Join(unused, " "))
	}
}
