package machine_test

import (
	"reflect"
	"testing"

	"dsmphase/internal/coherence"
	"dsmphase/internal/machine"
	"dsmphase/internal/workloads"
)

// TestSchedulerEquivalenceWorkloads extends the randomized scheduler
// equivalence check to registered workloads: dense blocked LU, a
// false-sharing stencil and a page-thrashing kernel at test size on
// 8 processors, under every coherence backend, must produce the naive
// oracle's records, summary and protocol statistics.
func TestSchedulerEquivalenceWorkloads(t *testing.T) {
	for _, name := range []string{"lu", "fsstencil", "pagethrash"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range coherence.Kinds() {
			run := func(naive bool) (*machine.Machine, machine.Summary) {
				cfg := machine.DefaultConfig(8)
				cfg.IntervalInstructions = 20_000
				cfg.Protocol = kind
				cfg.NaiveScheduler = naive
				m := machine.New(cfg, w.Threads(8, workloads.SizeTest, 1))
				sum, err := m.Run()
				if err != nil {
					t.Fatalf("%s/%s naive=%t: %v", name, kind, naive, err)
				}
				return m, sum
			}
			oracle, wantSum := run(true)
			horizon, gotSum := run(false)
			if gotSum != wantSum {
				t.Errorf("%s/%s: Summary diverged:\nhorizon %+v\noracle  %+v", name, kind, gotSum, wantSum)
			}
			if got, want := horizon.Protocol().Stats(), oracle.Protocol().Stats(); got != want {
				t.Errorf("%s/%s: Protocol.Stats diverged:\nhorizon %+v\noracle  %+v", name, kind, got, want)
			}
			if got, want := horizon.Records(), oracle.Records(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: interval signature streams diverged (%d vs %d records)", name, kind, len(got), len(want))
			}
			if len(oracle.Records()) == 0 {
				t.Errorf("%s/%s: no intervals recorded", name, kind)
			}
		}
	}
}
