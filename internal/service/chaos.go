package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"dsmphase/internal/faults"
	"dsmphase/internal/harness"
	"dsmphase/internal/rng"
)

// The chaos campaign: internal/wdlfuzz's shape applied to the service.
// RunChaos derives K seeded fault schedules from one campaign seed,
// runs each against a fresh coordinator whose workers are wrapped in
// the internal/faults injection plane, and holds every terminal job to
// an oracle: a completed job's report must be byte-identical to a
// direct Spec.Run in every encoder format, and a degraded job must
// mark exactly its injured cells — every error cell listed in
// Status.Injured, every healthy cell byte-identical (wall clock aside)
// to the direct run's. Schedules alternate two profiles:
//
//   - recover (even k): every shard draws from the default fault mix
//     but turns reliable after two attempts, so the dispatcher's
//     retry/backoff/quarantine machinery must land the job in "done".
//   - hostile (odd k): one victim shard cycles a doomed fault list
//     through its whole attempt budget; the job opts into AllowPartial
//     and must land in "degraded" with the victim's unrecovered cells
//     — and only those — injured.
//
// The campaign then replays one hostile schedule (same seed, fresh
// coordinator) and requires the identical outcome — the determinism
// oracle — and finally corrupts a result-cache entry on disk and
// requires the next identical submission to evict it and recompute,
// byte-identical again.

// ChaosConfig parameterizes a campaign.
type ChaosConfig struct {
	// Schedules is the seeded-schedule count K (0 = 4; min 2, so both
	// profiles run).
	Schedules int
	// Seed keys the campaign; schedule k draws its fault-plan seed from
	// Hash64(Seed ^ (k+1)).
	Seed uint64
	// DataDir is the campaign's scratch root; each schedule's
	// coordinator gets its own subdirectory.
	DataDir string
	// ExperimentsBin is the worker binary path.
	ExperimentsBin string
	// Logf, if non-nil, receives campaign progress lines.
	Logf func(format string, args ...any)
}

func (c *ChaosConfig) fill() {
	if c.Schedules <= 0 {
		c.Schedules = 4
	}
	if c.Schedules < 2 {
		c.Schedules = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// ChaosOutcome summarizes one schedule's terminal job — the unit the
// determinism oracle compares across replays.
type ChaosOutcome struct {
	Schedule int    `json:"schedule"`
	Profile  string `json:"profile"` // "recover" or "hostile"
	Grid     string `json:"grid"`
	State    string `json:"state"`
	Injured  []int  `json:"injured,omitempty"`
}

// ChaosResult is a campaign's summary. An empty Violations slice is
// the pass verdict.
type ChaosResult struct {
	Schedules  int            `json:"schedules"`
	Completed  int            `json:"completed"`
	Degraded   int            `json:"degraded"`
	Outcomes   []ChaosOutcome `json:"outcomes"`
	Violations []string       `json:"violations,omitempty"`
}

// chaosRef is one grid's oracle material, computed once per campaign:
// the direct (unsharded, in-process) run's report bytes per encoder
// format, and its per-cell results keyed by plan index with the wall
// clock — the artifact's only nondeterministic field — zeroed.
type chaosRef struct {
	grid    harness.NamedGrid
	formats []string
	reports map[string][]byte
	cells   map[int]harness.ShardCell
}

// chaosRequest is the small fast grid chaos schedules submit, the same
// shape the service end-to-end tests use.
func chaosRequest(grid string) JobRequest {
	return JobRequest{
		Grid:     grid,
		Size:     "test",
		Apps:     []string{"lu"},
		Interval: 20_000,
		Shards:   2,
	}
}

// buildChaosRef runs the request's grid directly — no shards, no
// workers, no coordinator — and captures the oracle's reference bytes
// from that one run.
func buildChaosRef(req JobRequest) (*chaosRef, error) {
	req.normalize()
	g, err := req.compile()
	if err != nil {
		return nil, err
	}
	all, _, err := harness.RunGrids([]harness.NamedGrid{g}, 0, 1, harness.Options{}, false, nil)
	if err != nil {
		return nil, err
	}
	results := all[0]
	// Both encoder families register the same format names.
	ref := &chaosRef{grid: g, formats: harness.EncoderNames(), reports: map[string][]byte{}, cells: map[int]harness.ShardCell{}}
	for _, format := range ref.formats {
		enc, err := g.Encoder(format, req.Grid)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := enc(&buf, results); err != nil {
			return nil, err
		}
		ref.reports[format] = buf.Bytes()
	}
	sg, err := harness.NewShardGrid(g.Name, g.Spec, results, g.Tuning, false)
	if err != nil {
		return nil, err
	}
	for _, sc := range sg.Results {
		sc.WallNS = 0
		ref.cells[sc.Index] = sc
	}
	return ref, nil
}

// sameCell compares two serialized cells ignoring the wall clock.
func sameCell(a, b harness.ShardCell) bool {
	a.WallNS, b.WallNS = 0, 0
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// chaosPlan builds schedule k's fault plan and request. The hostile
// profile picks as victim the shard holding plan cell 0 — always a
// non-empty shard, so a degraded outcome always injures something —
// and cycles it between an attempt that never starts and one that
// completes the shard but tears the stream tail and drops the
// artifact, exercising both degraded-synthesis sources (recovered
// stream cells and never-seen cells).
func chaosPlan(k int, seed uint64, req JobRequest, grid harness.NamedGrid) (*faults.Plan, JobRequest, string) {
	plan := &faults.Plan{
		Seed:           seed,
		Mix:            faults.DefaultMix(),
		ReliableAfter:  2,
		SlowStartDelay: 10 * time.Millisecond,
	}
	if k%2 == 0 {
		return plan, req, "recover"
	}
	of := req.Shards
	for s := 0; s < of; s++ {
		idxs := grid.Spec.Plan().ShardIndices(s, of)
		if len(idxs) > 0 && idxs[0] == 0 {
			plan.Victim = s
			break
		}
	}
	plan.VictimMix = []faults.Kind{faults.TransientExec, faults.TornStream}
	req.AllowPartial = true
	return plan, req, "hostile"
}

// runChaosSchedule runs one schedule end to end and appends any oracle
// violations. The returned outcome feeds the determinism oracle.
func runChaosSchedule(cc ChaosConfig, k int, dataDir string, ref *chaosRef, req JobRequest, plan *faults.Plan, profile string) (ChaosOutcome, []string) {
	out := ChaosOutcome{Schedule: k, Profile: profile, Grid: req.Grid}
	fail := func(format string, args ...any) []string {
		return []string{fmt.Sprintf("schedule %d (%s, %s): %s", k, profile, req.Grid, fmt.Sprintf(format, args...))}
	}
	coord, err := New(Config{
		DataDir:         dataDir,
		ExperimentsBin:  cc.ExperimentsBin,
		Workers:         []string{"local", "local"},
		MaxAttempts:     4,
		RetryBase:       time.Millisecond,
		RetryMax:        4 * time.Millisecond,
		AttemptTimeout:  5 * time.Second,
		StragglerAfter:  time.Hour, // stragglers off: attempt counts stay schedule-deterministic
		QuarantineAfter: 2,
		WorkerParallel:  1, // sequential cells: stream order (and torn-tail identity) is deterministic
		PollInterval:    20 * time.Millisecond,
		Logf:            cc.Logf,
		WrapWorker:      func(w Worker) Worker { return faults.Wrap(w, plan, cc.Logf) },
	})
	if err != nil {
		return out, fail("coordinator: %v", err)
	}
	defer coord.Close()

	st, err := coord.Submit(req)
	if err != nil {
		return out, fail("submit: %v", err)
	}
	st, err = waitChaosJob(coord, st.ID, 2*time.Minute)
	if err != nil {
		return out, fail("%v", err)
	}
	out.State = st.State
	out.Injured = append([]int(nil), st.Injured...)

	j, _ := coord.Job(st.ID)
	switch profile {
	case "recover":
		// The plan turns reliable after two attempts with four budgeted,
		// so the dispatcher must finish the job — and byte-identically.
		if st.State != StateDone {
			return out, fail("state %q (error %q), want done", st.State, st.Error)
		}
		if len(st.Injured) != 0 {
			return out, fail("done job lists injured cells %v", st.Injured)
		}
		var violations []string
		for _, format := range ref.formats {
			var buf bytes.Buffer
			if err := j.RenderReport(coord, &buf, format, req.Grid); err != nil {
				violations = append(violations, fail("%s report: %v", format, err)...)
				continue
			}
			if !bytes.Equal(buf.Bytes(), ref.reports[format]) {
				violations = append(violations, fail("%s report differs from direct run", format)...)
			}
		}
		return out, violations
	case "hostile":
		return out, append([]string(nil), checkDegraded(coord, j, st, ref, plan, fail)...)
	}
	return out, fail("unknown profile")
}

// checkDegraded holds a hostile schedule's job to the degraded oracle:
// the victim shard dooms the job, the injured list, the artifact's
// error cells and the reference's cell set must agree exactly, and
// every format must still render.
func checkDegraded(coord *Coordinator, j *Job, st JobStatus, ref *chaosRef, plan *faults.Plan, fail func(string, ...any) []string) []string {
	if st.State != StateDegraded {
		return fail("state %q (error %q), want degraded", st.State, st.Error)
	}
	if len(st.Injured) == 0 {
		return fail("degraded job lists no injured cells")
	}
	victims := map[int]bool{}
	for _, i := range ref.grid.Spec.Plan().ShardIndices(plan.Victim, st.Shards) {
		victims[i] = true
	}
	for _, i := range st.Injured {
		if !victims[i] {
			return fail("injured cell %d is not on victim shard %d", i, plan.Victim)
		}
	}
	art, err := j.Artifact(coord)
	if err != nil {
		return fail("artifact: %v", err)
	}
	g, ok := art.Grid(ref.grid.Name)
	if !ok {
		return fail("merged artifact has no grid %q", ref.grid.Name)
	}
	injured := map[int]bool{}
	for _, i := range st.Injured {
		injured[i] = true
	}
	var violations []string
	seen := 0
	for _, sc := range g.Results {
		if sc.Err != "" {
			if !injured[sc.Index] {
				violations = append(violations, fail("cell %d carries error %q but is not listed injured", sc.Index, sc.Err)...)
			}
			seen++
			continue
		}
		if injured[sc.Index] {
			violations = append(violations, fail("cell %d is listed injured but carries a result", sc.Index)...)
			continue
		}
		refCell, ok := ref.cells[sc.Index]
		if !ok {
			violations = append(violations, fail("cell %d missing from reference run", sc.Index)...)
			continue
		}
		if !sameCell(sc, refCell) {
			violations = append(violations, fail("healthy cell %d differs from direct run", sc.Index)...)
		}
	}
	if seen != len(st.Injured) {
		violations = append(violations, fail("%d error cells in artifact, %d listed injured", seen, len(st.Injured))...)
	}
	// A degraded report is still a report: every encoder renders it.
	for _, format := range ref.formats {
		var buf bytes.Buffer
		if err := j.RenderReport(coord, &buf, format, j.Req.Grid); err != nil {
			violations = append(violations, fail("degraded %s report: %v", format, err)...)
		} else if buf.Len() == 0 {
			violations = append(violations, fail("degraded %s report is empty", format)...)
		}
	}
	return violations
}

// waitChaosJob polls a job to a terminal state.
func waitChaosJob(coord *Coordinator, id string, timeout time.Duration) (JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		j, ok := coord.Job(id)
		if !ok {
			return JobStatus{}, fmt.Errorf("job %s vanished", id)
		}
		st := j.Status()
		if terminalState(st.State) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %q after %v", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkCacheCorruption runs the corrupt-cache-entry oracle: complete a
// job on a fault-free coordinator, flip a content value inside its
// disk-cache entry (the checksum now lies), and resubmit. The
// coordinator must drop the corrupt entry, recompute the job from
// workers, and serve bytes identical to the direct run; a third
// submission then hits the freshly rewritten cache.
func checkCacheCorruption(cc ChaosConfig, dataDir string, ref *chaosRef) []string {
	fail := func(format string, args ...any) []string {
		return []string{fmt.Sprintf("cache-corruption: %s", fmt.Sprintf(format, args...))}
	}
	coord, err := New(Config{
		DataDir:        dataDir,
		ExperimentsBin: cc.ExperimentsBin,
		Workers:        []string{"local", "local"},
		WorkerParallel: 1,
		PollInterval:   20 * time.Millisecond,
		Logf:           cc.Logf,
	})
	if err != nil {
		return fail("coordinator: %v", err)
	}
	defer coord.Close()
	req := chaosRequest(ref.grid.Name)

	st, err := coord.Submit(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	if st, err = waitChaosJob(coord, st.ID, 2*time.Minute); err != nil {
		return fail("%v", err)
	}
	if st.State != StateDone {
		return fail("seed job state %q, want done", st.State)
	}
	j, _ := coord.Job(st.ID)
	if err := faults.CorruptArtifactValue(coord.cache.path(j.Key)); err != nil {
		return fail("corrupting cache entry: %v", err)
	}

	st2, err := coord.Submit(req)
	if err != nil {
		return fail("resubmit: %v", err)
	}
	if st2.Cached {
		return fail("resubmission was served from a corrupt cache entry")
	}
	if st2, err = waitChaosJob(coord, st2.ID, 2*time.Minute); err != nil {
		return fail("%v", err)
	}
	var violations []string
	if st2.State != StateDone {
		violations = append(violations, fail("recomputed job state %q, want done", st2.State)...)
	}
	if coord.cache.CorruptDropped() == 0 {
		violations = append(violations, fail("corrupt entry was not counted dropped")...)
	}
	j2, _ := coord.Job(st2.ID)
	for _, format := range ref.formats {
		var buf bytes.Buffer
		if err := j2.RenderReport(coord, &buf, format, req.Grid); err != nil {
			violations = append(violations, fail("%s report: %v", format, err)...)
		} else if !bytes.Equal(buf.Bytes(), ref.reports[format]) {
			violations = append(violations, fail("recomputed %s report differs from direct run", format)...)
		}
	}
	st3, err := coord.Submit(req)
	if err != nil {
		violations = append(violations, fail("third submit: %v", err)...)
	} else if !st3.Cached {
		violations = append(violations, fail("recomputed result did not repopulate the cache")...)
	}
	return violations
}

// chaosScheduleSeeds derives a campaign's per-schedule fault-plan
// seeds — the (campaign seed, k) mapping that makes any schedule
// replayable by two numbers.
func chaosScheduleSeeds(seed uint64, k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = rng.Hash64(seed ^ uint64(i+1))
	}
	return out
}

// RunChaos runs the campaign. The error return covers infrastructure
// failures only (reference runs, directories); oracle failures land in
// Violations so a caller can report them all.
func RunChaos(cc ChaosConfig) (*ChaosResult, error) {
	cc.fill()
	if cc.DataDir == "" {
		return nil, fmt.Errorf("service: ChaosConfig.DataDir is required")
	}
	if cc.ExperimentsBin == "" {
		return nil, fmt.Errorf("service: ChaosConfig.ExperimentsBin is required")
	}
	res := &ChaosResult{Schedules: cc.Schedules}
	refs := map[string]*chaosRef{}
	refFor := func(grid string) (*chaosRef, error) {
		if ref, ok := refs[grid]; ok {
			return ref, nil
		}
		ref, err := buildChaosRef(chaosRequest(grid))
		if err != nil {
			return nil, fmt.Errorf("service: chaos reference run (%s): %w", grid, err)
		}
		refs[grid] = ref
		return ref, nil
	}

	schedule := func(k int, dataDir string) (ChaosOutcome, []string, error) {
		grid := "figure2"
		if k%4 >= 2 {
			grid = "tuning"
		}
		ref, err := refFor(grid)
		if err != nil {
			return ChaosOutcome{}, nil, err
		}
		seed := chaosScheduleSeeds(cc.Seed, k+1)[k]
		plan, req, profile := chaosPlan(k, seed, chaosRequest(grid), ref.grid)
		cc.Logf("chaos schedule %d: profile=%s grid=%s seed=%016x victim=%d", k, profile, grid, seed, plan.Victim)
		out, violations := runChaosSchedule(cc, k, dataDir, ref, req, plan, profile)
		return out, violations, nil
	}

	for k := 0; k < cc.Schedules; k++ {
		out, violations, err := schedule(k, filepath.Join(cc.DataDir, fmt.Sprintf("schedule_%d", k)))
		if err != nil {
			return nil, err
		}
		res.Outcomes = append(res.Outcomes, out)
		res.Violations = append(res.Violations, violations...)
		switch out.State {
		case StateDone:
			res.Completed++
		case StateDegraded:
			res.Degraded++
		}
	}

	// Capability oracle: the campaign must demonstrate both recovery to
	// a complete result and graceful degradation — a pass with neither
	// would be vacuous.
	if res.Completed == 0 {
		res.Violations = append(res.Violations, "campaign: no schedule completed a job")
	}
	if res.Degraded == 0 {
		res.Violations = append(res.Violations, "campaign: no schedule degraded a job")
	}

	// Determinism oracle: replaying a hostile schedule under the same
	// seed must reproduce the outcome — state and injured set alike.
	replay, violations, err := schedule(1, filepath.Join(cc.DataDir, "schedule_1_replay"))
	if err != nil {
		return nil, err
	}
	res.Violations = append(res.Violations, violations...)
	first := res.Outcomes[1]
	sort.Ints(first.Injured)
	sort.Ints(replay.Injured)
	if first.State != replay.State || !reflect.DeepEqual(first.Injured, replay.Injured) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("determinism: schedule 1 replay diverged: %s/%v then %s/%v",
				first.State, first.Injured, replay.State, replay.Injured))
	}

	res.Violations = append(res.Violations, checkCacheCorruption(cc, filepath.Join(cc.DataDir, "cachecheck"), refs["figure2"])...)
	cc.Logf("chaos campaign: %d schedules, %d completed, %d degraded, %d violations",
		res.Schedules, res.Completed, res.Degraded, len(res.Violations))
	return res, nil
}
