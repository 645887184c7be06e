package service

import (
	"testing"
)

// TestChaosCampaign is the chaos gate, the campaign `dsmphased -chaos 4
// -chaos-seed 1` runs: four fixed-seed schedules over both profiles and
// both encoder families, held to the byte identity, exact-injury,
// determinism and cache-corruption oracles by RunChaos itself. A
// violation here means the resilient dispatcher changed observable
// behavior under faults.
func TestChaosCampaign(t *testing.T) {
	res, err := RunChaos(ChaosConfig{
		Schedules:      4,
		Seed:           1,
		DataDir:        t.TempDir(),
		ExperimentsBin: experimentsBin,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	t.Logf("campaign: %d schedules, %d completed, %d degraded", res.Schedules, res.Completed, res.Degraded)
	if res.Completed < 2 || res.Degraded < 2 {
		t.Errorf("expected 2 completed and 2 degraded schedules, got %d and %d", res.Completed, res.Degraded)
	}
}

// TestChaosSeedChangesSchedule pins that the campaign seed actually
// steers the fault plan: two plans with different seeds draw different
// schedules somewhere over a small window (and identical seeds agree
// everywhere) — the replay knob is real.
func TestChaosSeedChangesSchedule(t *testing.T) {
	// Covered at the faults layer by TestDrawDeterministic; here we pin
	// the campaign-level seed derivation so RunChaos schedules stay
	// replayable by (Seed, k) alone.
	a := chaosScheduleSeeds(1, 4)
	b := chaosScheduleSeeds(1, 4)
	c := chaosScheduleSeeds(2, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule %d: same campaign seed drew %016x then %016x", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("campaign seeds 1 and 2 derived identical schedule seeds")
	}
}
