package workloads

import (
	"path/filepath"
	"testing"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
)

// examplePath resolves a repo examples/ file from the package dir.
func examplePath(parts ...string) string {
	return filepath.Join(append([]string{"..", "..", "examples"}, parts...)...)
}

// loadExample parses, registers and schedules cleanup for an example
// spec file.
func loadExample(t *testing.T, parts ...string) *SpecWorkload {
	t.Helper()
	sw, err := LoadSpecFile(examplePath(parts...))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Register(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { removeDynamic(sw.Name()) })
	return sw
}

// classifyPhases runs a registered workload on a 2-node machine and
// returns proc 0's BBV phase IDs at the behavior-test thresholds.
func classifyPhases(t *testing.T, name string, interval uint64) []int {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(2)
	cfg.IntervalInstructions = interval
	m := machine.New(cfg, w.Threads(2, SizeTest, 1))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	sigs := m.RecordsByProc()[0]
	if len(sigs) < 4 {
		t.Fatalf("%s: only %d intervals recorded", name, len(sigs))
	}
	return core.ClassifyRecorded(core.DetectorBBV, 16, 0.05, 0, sigs)
}

// switchRate is the fraction of intervals whose phase ID differs from
// the previous interval's.
func switchRate(ids []int) float64 {
	switches := 0
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			switches++
		}
	}
	return float64(switches) / float64(len(ids)-1)
}

func distinct(ids []int) int {
	seen := map[int]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	return len(seen)
}

// longestRun is the longest streak of identical consecutive phase IDs —
// how long the detector manages to stay settled in one phase.
func longestRun(ids []int) int {
	best, run := 1, 1
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			run++
		} else {
			run = 1
		}
		if run > best {
			best = run
		}
	}
	return best
}

// TestAdversarialSpecsDegradeDetector pins the point of the
// examples/adversarial_phases specs: against a well-behaved Table II
// generator (lu) at identical thresholds, both specs destabilize the
// classification — the detector flips phase IDs in most intervals and
// never settles into a long stable run.
func TestAdversarialSpecsDegradeDetector(t *testing.T) {
	loadExample(t, "adversarial_phases", "oscillate.wdl")
	loadExample(t, "adversarial_phases", "drift.wdl")
	const interval = 2_000

	base := classifyPhases(t, "lu", interval)
	osc := classifyPhases(t, "oscillate", interval)
	dri := classifyPhases(t, "drift", interval)

	baseRate := switchRate(base)
	if oscRate := switchRate(osc); oscRate < 2*baseRate || oscRate < 0.3 {
		t.Errorf("oscillate switch rate %.2f (lu: %.2f); want >2x lu and >0.3", oscRate, baseRate)
	}
	if driRate := switchRate(dri); driRate < 3*baseRate || driRate < 0.5 {
		t.Errorf("drift switch rate %.2f (lu: %.2f); want >3x lu and >0.5", driRate, baseRate)
	}
	// lu settles into long per-phase runs; under drift the detector
	// never holds a phase for long even though no boundary is abrupt.
	if baseRun, driRun := longestRun(base), longestRun(dri); driRun*4 > baseRun {
		t.Errorf("drift's longest stable run is %d intervals vs lu's %d; want <1/4", driRun, baseRun)
	}
}

// TestFuzzFoundReproducers pins the frozen examples/fuzz_found corpus at
// the bars its specs were committed at. oscillate-f2 and drift-f10
// destabilize the detector: at least twice lu's BBV switch rate at the
// thresholds above. drift-f13's spread, all-store random block makes
// page-granular IVY's activity (faults, transfers, page invalidations)
// at least 32x the directory's line-level activity (remote trips,
// invalidations); both backends commit the same instruction stream, so
// raw counts compare as rates.
func TestFuzzFoundReproducers(t *testing.T) {
	const interval = 2_000
	baseRate := switchRate(classifyPhases(t, "lu", interval))
	for _, name := range []string{"oscillate-f2", "drift-f10"} {
		t.Run(name+".wdl", func(t *testing.T) {
			loadExample(t, "fuzz_found", name+".wdl")
			if rate := switchRate(classifyPhases(t, name, interval)); rate < 2*baseRate {
				t.Errorf("switch rate %.2f (lu: %.2f); want >=2x lu", rate, baseRate)
			}
		})
	}
	t.Run("drift-f13.wdl", func(t *testing.T) {
		const n = 4
		loadExample(t, "fuzz_found", "drift-f13.wdl")
		dir := runProtocol(t, "drift-f13", n, coherence.KindDirectory)
		ivy := runProtocol(t, "drift-f13", n, coherence.KindIVY)
		dirEvents := dir.RemoteTrips + dir.Invalidations
		ivyEvents := ivy.PageFaults + ivy.PageTransfers + ivy.PageInvalidations
		if ivyEvents <= dirEvents || ivyEvents < 32*dirEvents {
			t.Errorf("ivy page events %d vs directory line events %d; want IVY the larger side by >=32x",
				ivyEvents, dirEvents)
		}
	})
}

// TestTraceIngestExample runs the committed example capture end to end:
// spec file -> inlined records -> replayed workload -> machine run with
// recorded intervals, on the capture's node count and a larger one.
func TestTraceIngestExample(t *testing.T) {
	sw := loadExample(t, "trace_ingest", "pingpong.wdl")
	if sw.Name() != "pingpong" {
		t.Fatalf("name = %q", sw.Name())
	}
	ids := classifyPhases(t, "pingpong", 2_000)
	if distinct(ids) < 2 {
		t.Errorf("pingpong classified as %d phase(s); the capture alternates two segment flavors", distinct(ids))
	}

	// The 2-proc capture must also run on a bigger machine (homes
	// remapped, procs folded; idle nodes just wait at barriers).
	cfg := machine.DefaultConfig(8)
	cfg.IntervalInstructions = 500
	m := machine.New(cfg, sw.Threads(8, SizeTest, 1))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.RecordsByProc()[0]) == 0 {
		t.Fatal("no intervals recorded on the 8-node replay")
	}
}
