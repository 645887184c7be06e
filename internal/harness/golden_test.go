package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the encoder golden files")

// goldenReport runs one small multi-replicate ablation grid shared by
// every encoder golden test. The simulator is deterministic across
// platforms and worker counts, so the encoded bytes are too — that is
// the property the golden files pin.
var goldenReport = sync.OnceValue(func() *Report {
	return NewSpec(
		WithApps("fmm"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(2),
		WithTweak("uniform-distance", "uniformD",
			func(c *machine.Config) { c.UniformDistance = true }),
	).Run(Options{Parallel: 4})
})

// TestGoldenEncoders pins every Report encoder's output byte for byte.
// Regenerate with `go test ./internal/harness -run TestGolden -update`
// after an intentional format change.
func TestGoldenEncoders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden runs")
	}
	rep := goldenReport()
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, name := range EncoderNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			enc, err := NewEncoder(name, "golden ablation grid")
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := enc.Encode(&got, rep); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "report."+name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s",
					name, path, want, got.Bytes())
			}
		})
	}
}

// goldenTuningReport runs the small multi-replicate tuning grid shared
// by the tuning-encoder golden tests: the closed loop (thresholds from
// the CoV curve, live phase streams, online AdaptiveLoop per processor)
// on deterministic simulations, so the scorecard bytes are too.
var goldenTuningReport = sync.OnceValue(func() *TuningReport {
	rep, err := runTuning(NewSpec(
		WithApps("fmm"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(2),
		WithPredictors("last-phase", "markov"),
		WithControllers(ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	), Options{Parallel: 4})
	if err != nil {
		panic(err)
	}
	return rep
})

// TestGoldenTuningEncoders pins every TuningReport encoder's output
// byte for byte. Regenerate with
// `go test ./internal/harness -run TestGolden -update`.
func TestGoldenTuningEncoders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden runs")
	}
	rep := goldenTuningReport()
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	names := TuningEncoderNames()
	if goldens, _ := filepath.Glob("testdata/tuning.*.golden"); len(goldens) != len(names) {
		t.Errorf("tuning encoders %v do not match the golden files %v", names, goldens)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			enc, err := NewTuningEncoder(name, "golden tuning grid")
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := enc.Encode(&got, rep); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "tuning."+name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s",
					name, path, want, got.Bytes())
			}
		})
	}
}

// TestGoldenTextSingleReplicate pins the one-replicate text format —
// the byte-identical legacy table — as its own golden file, so format
// drift is caught even if the legacy helpers are ever removed.
func TestGoldenTextSingleReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden runs")
	}
	rep := NewSpec(
		WithApps("lu"),
		WithProcs(2),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
	).Run(Options{Parallel: 2})
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := (TextEncoder{Title: "golden single"}).Encode(&got, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.text-r1.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("single-replicate text output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got.Bytes())
	}
}
