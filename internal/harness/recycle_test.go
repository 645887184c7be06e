package harness

import (
	"reflect"
	"runtime"
	"testing"

	"dsmphase/internal/cache"
	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
)

// simOutcome is everything a released machine still answers for.
type simOutcome struct {
	Records []core.IntervalSignature
	Sum     machine.Summary
	Stats   coherence.Stats
}

func outcomeOf(m *machine.Machine, sum machine.Summary) simOutcome {
	return simOutcome{Records: m.Records(), Sum: sum, Stats: m.Protocol().Stats()}
}

// freshOutcome runs rc after emptying the cache pools: a sync.Pool
// drops everything it holds across two garbage collections, so every
// cache this run gets is newly built.
func freshOutcome(t *testing.T, rc RunConfig) simOutcome {
	t.Helper()
	runtime.GC()
	runtime.GC()
	m, sum, err := Simulate(rc)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(m, sum)
}

// TestSimulateRecyclesCaches pins the simulation lifetime: Simulate
// releases each machine's caches to the pool the next machine draws
// from, and a run on recycled caches — after a smaller directory run
// that dirtied some of them, or after an IVY run — equals the same run
// on newly built ones: records, summary and protocol statistics. A run
// whose L2 is shrunk until it evicts repeats on caches whose carved
// blocks held evicted lines and stale LRU ticks. The same holds when
// RunPlan's workers build and release machines concurrently.
func TestSimulateRecyclesCaches(t *testing.T) {
	rc := func(procs int, kind coherence.Kind) RunConfig {
		r := quickRun(t, "lu", procs)
		r.Protocol = kind
		return r
	}
	big := rc(32, coherence.KindDirectory)
	want := freshOutcome(t, big)

	evicting := rc(8, coherence.KindDirectory)
	evicting.Tweak = func(c *machine.Config) {
		c.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, HitCycles: 12}
	}
	wantEvicting := freshOutcome(t, evicting)
	// Each writeback is a dirty L2 eviction.
	if wantEvicting.Stats.Writebacks == 0 {
		t.Fatal("the shrunk-L2 run never evicted a dirty line")
	}
	if m, sum, err := Simulate(evicting); err != nil {
		t.Fatal(err)
	} else if got := outcomeOf(m, sum); !reflect.DeepEqual(got, wantEvicting) {
		t.Error("shrunk-L2 run on caches recycled from an evicting run differs from a fresh-pool run")
	}
	for _, before := range []RunConfig{rc(8, coherence.KindDirectory), rc(32, coherence.KindIVY)} {
		if _, _, err := Simulate(before); err != nil {
			t.Fatal(err)
		}
		m, sum, err := Simulate(big)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(m, sum); !reflect.DeepEqual(got, want) {
			t.Errorf("32P directory run after %dP %s differs from a fresh-pool run", before.Procs, before.Protocol)
		}
	}

	runs := []RunConfig{
		rc(8, coherence.KindDirectory), big, rc(32, coherence.KindIVY),
		rc(16, coherence.KindDirectory), rc(8, coherence.KindIVY), evicting,
	}
	wants := make([]simOutcome, len(runs))
	p := NewPlan()
	for i, r := range runs {
		wants[i] = freshOutcome(t, r)
		p.Add(r, core.DetectorBBV)
	}
	results := RunPlan(p, Options{Parallel: 4, Hook: func(_ Cell, m *machine.Machine, _ CurveResult, sum machine.Summary) any {
		return outcomeOf(m, sum)
	}})
	for i, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !reflect.DeepEqual(r.Extra, wants[i]) {
			t.Errorf("RunPlan cell %d (%dP %s) differs from a fresh-pool run", i, runs[i].Procs, runs[i].Protocol)
		}
	}
}
