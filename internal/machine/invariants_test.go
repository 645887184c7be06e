package machine_test

import (
	"testing"

	"dsmphase/internal/cache"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// TestDirectoryInvariantsAtIntervalEnds checks the directory protocol's
// invariants — L1 ⊆ L2 with equal states, every cached line covered by
// its home row, every row matched by its owner's cache — at every
// interval end of test-size runs: lu and fsstencil (false sharing, so
// stores miss on lines another processor holds Modified) on the Table I
// 32P machine, and lu on an 8P machine whose L2 is shrunk until it
// evicts, so victims, writebacks and replacement hints are checked too.
func TestDirectoryInvariantsAtIntervalEnds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed invariant run")
	}
	smallL2 := func(c *machine.Config) {
		c.L2 = cache.Config{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32, HitCycles: 12}
	}
	cases := []struct {
		app   string
		procs int
		tweak func(*machine.Config)
	}{
		{app: "lu", procs: 32},
		{app: "fsstencil", procs: 32},
		{app: "lu", procs: 8, tweak: smallL2},
	}
	for _, tc := range cases {
		name := tc.app + "/Table I"
		if tc.tweak != nil {
			name = tc.app + "/8kB L2"
		}
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			cfg := machine.DefaultConfig(tc.procs)
			cfg.IntervalInstructions = 10_000
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			m := machine.New(cfg, w.Threads(tc.procs, workloads.SizeTest, 1))
			checks := 0
			m.SetIntervalHook(func() {
				checks++
				if err := m.Protocol().CheckInvariants(); err != nil {
					t.Fatalf("interval end %d: %v", checks, err)
				}
			})
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if checks == 0 {
				t.Fatal("no interval ended")
			}
			var evictions uint64
			for i := 0; i < tc.procs; i++ {
				evictions += m.Protocol().(interface{ CacheL2(int) *cache.Cache }).CacheL2(i).Stats().Evictions
			}
			if tc.tweak != nil && evictions == 0 {
				t.Error("the shrunk L2 never evicted: the victim path went unchecked")
			}
			t.Logf("%d interval ends checked, %d L2 evictions", checks, evictions)
		})
	}
}
