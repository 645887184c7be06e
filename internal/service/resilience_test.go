package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dsmphase/internal/faults"
)

// victimShard returns the shard of `of` holding the request's plan
// cell 0 — guaranteed non-empty, so dooming it injures something.
func victimShard(t *testing.T, req JobRequest, of int) int {
	t.Helper()
	r := req
	r.normalize()
	g, err := r.compile()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < of; s++ {
		idxs := g.Spec.Plan().ShardIndices(s, of)
		if len(idxs) > 0 && idxs[0] == 0 {
			return s
		}
	}
	t.Fatal("no shard holds cell 0")
	return 0
}

// TestServiceFaultKinds forces each fault kind on the first attempt of
// every shard (the second runs clean): every job ends done, its report
// byte-identical to the direct run in every format. A kind that fails
// its attempt costs each shard one retry, and a slow start costs none;
// the corrupt artifact is caught by its content checksum alone, and the
// hung attempt only by AttemptTimeout. A kind without a row fails the
// test.
func TestServiceFaultKinds(t *testing.T) {
	req := testRequest() // two shards, both non-empty
	ref := directRun(t, req)
	const hangTimeout = 5 * time.Second // well above a clean attempt
	rows := []struct {
		kind  faults.Kind
		fails bool // the kind fails the attempt it is forced on
	}{
		{faults.TransientExec, true},
		{faults.SlowStart, false},
		{faults.Hang, true},
		{faults.CrashBeforeArtifact, true},
		{faults.TornStream, true},
		{faults.CorruptArtifact, true},
		{faults.TruncateArtifact, true},
		{faults.WrongFingerprint, true},
	}
	covered := map[faults.Kind]bool{}
	for _, row := range rows {
		covered[row.kind] = true
	}
	for k := faults.None + 1; k < faults.NumKinds; k++ {
		if !covered[k] {
			t.Errorf("fault kind %v has no row", k)
		}
	}
	for _, row := range rows {
		t.Run(row.kind.String(), func(t *testing.T) {
			t.Parallel()
			plan := &faults.Plan{Mix: []faults.Weighted{{Kind: row.kind, Weight: 1}}, ReliableAfter: 1}
			coord := newTestCoordinator(t, func(cfg *Config) {
				cfg.RetryBase = time.Millisecond
				if row.kind == faults.Hang {
					cfg.AttemptTimeout = hangTimeout
				}
				cfg.WrapWorker = func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) }
			})
			st, err := coord.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if st = waitJob(t, coord, st.ID, hangTimeout+time.Minute); st.State != StateDone {
				t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
			}
			checkReports(t, coord, st.ID, ref)

			var retries, checksums int64
			if row.fails {
				retries = int64(st.Shards)
			}
			if row.kind == faults.CorruptArtifact {
				checksums = int64(st.Shards)
			}
			if got := coord.Counters.ShardsRetried.Load(); got != retries {
				t.Errorf("shards_retried = %d, want %d", got, retries)
			}
			if got := coord.Counters.ChecksumFailures.Load(); got != checksums {
				t.Errorf("checksum_failures = %d, want %d", got, checksums)
			}
			if took := st.Finished.Sub(*st.Started); row.kind == faults.Hang && took < hangTimeout {
				t.Errorf("hung attempts ended after %v, before the %v AttemptTimeout", took, hangTimeout)
			}
		})
	}
}

// TestServiceDegradedReport: with one shard doomed by the fault plane
// and AllowPartial set, the job terminates "degraded" instead of
// "failed": the report serves in every format, exactly the injured
// cells carry errors, all of them the doomed shard's, every healthy
// cell equals the direct run's, and the partial result never enters
// the cache. The figure2 row's doomed attempts never start, so every
// victim cell is injured. The tuning row puts the other encoder family
// under faults: its victim's attempts alternate with a crash that tears
// the stream, so the last stream's surviving cells are recovered and
// only the cells it lost are injured — the same ones again on a fresh
// coordinator.
func TestServiceDegradedReport(t *testing.T) {
	tuning := testRequest()
	tuning.Grid, tuning.Shards = "tuning", 2
	for _, row := range []struct {
		req         JobRequest
		victimMix   []faults.Kind
		maxAttempts int
		recovers    bool // some victim cells survive in its last stream
	}{
		{testRequest(), []faults.Kind{faults.TransientExec}, 2, false},
		{tuning, []faults.Kind{faults.TransientExec, faults.TornStream}, 4, true},
	} {
		t.Run(row.req.Grid, func(t *testing.T) {
			req := row.req
			req.AllowPartial = true
			victim := victimShard(t, req, 2)
			ref := directRun(t, req)
			degrade := func() (*Coordinator, *Client, JobStatus) {
				plan := &faults.Plan{Victim: victim, VictimMix: row.victimMix}
				coord := newTestCoordinator(t, func(cfg *Config) {
					cfg.MaxAttempts = row.maxAttempts
					cfg.RetryBase = time.Millisecond
					cfg.RetryMax = 2 * time.Millisecond
					cfg.WorkerParallel = 1 // cells stream in plan order, so the tear is deterministic
					cfg.WrapWorker = func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) }
				})
				srv := httptest.NewServer(coord.Handler())
				t.Cleanup(srv.Close)
				client := &Client{BaseURL: srv.URL}
				return coord, client, submitAndWait(t, client, req) // Wait returns degraded jobs like done ones
			}
			coord, client, st := degrade()
			if st.State != StateDegraded {
				t.Fatalf("job state = %s, want degraded", st.State)
			}
			if st.CellsDone != st.CellsTotal-len(st.Injured) {
				t.Fatalf("cells_done = %d with %d/%d injured", st.CellsDone, len(st.Injured), st.CellsTotal)
			}

			r := req
			r.normalize()
			g, err := r.compile()
			if err != nil {
				t.Fatal(err)
			}
			victimCells := g.Spec.Plan().ShardIndices(victim, 2)
			onVictim := map[int]bool{}
			for _, i := range victimCells {
				onVictim[i] = true
			}
			injured := map[int]bool{}
			for _, i := range st.Injured {
				if !onVictim[i] {
					t.Fatalf("injured cell %d is not on victim shard %d (cells %v)", i, victim, victimCells)
				}
				injured[i] = true
			}
			if row.recovers && (len(st.Injured) == 0 || len(st.Injured) == len(victimCells)) {
				t.Fatalf("injured %v of victim cells %v: want some recovered and some lost", st.Injured, victimCells)
			}
			if !row.recovers && len(st.Injured) != len(victimCells) {
				t.Fatalf("injured %v, want victim shard's cells %v", st.Injured, victimCells)
			}

			art, err := client.Artifact(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range art.Grids[0].Results {
				if (sc.Err != "") != injured[sc.Index] {
					t.Fatalf("cell %d: error %q, injured=%v", sc.Index, sc.Err, injured[sc.Index])
				}
				if sc.Err != "" && !strings.Contains(sc.Err, "exhausted its attempts") {
					t.Fatalf("injured cell %d error %q does not carry the shard failure", sc.Index, sc.Err)
				}
				if sc.Err == "" && !sameCell(sc, ref.cells[sc.Index]) {
					t.Errorf("healthy cell %d differs from the direct run's", sc.Index)
				}
			}

			// Degraded reports render in every format.
			for format := range ref.reports {
				if rep, err := client.Report(st.ID, format, req.Grid); err != nil || len(rep) == 0 {
					t.Fatalf("degraded %s report: %d bytes, %v", format, len(rep), err)
				}
			}

			// Never cached: the identical resubmission dispatches fresh workers.
			if st2 := submitAndWait(t, client, req); st2.Cached {
				t.Fatal("degraded result was served from the cache")
			}
			stats, err := client.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if got := coord.Counters.JobsDegraded.Load(); got != 2 || stats["jobs_degraded"] != 2 {
				t.Fatalf("jobs_degraded = %d, stats %d, want 2", got, stats["jobs_degraded"])
			}

			if row.recovers {
				// The same plan on a fresh coordinator injures the same cells.
				if _, _, again := degrade(); !reflect.DeepEqual(again.Injured, st.Injured) {
					t.Fatalf("replay injured %v (%s), first run %v", again.Injured, again.State, st.Injured)
				}
			}
		})
	}
}

// TestServiceCorruptCacheEntryRecomputes: a cache entry whose content
// no longer matches its checksum is dropped, not served: the
// resubmission recomputes on workers, byte-identical to the direct run
// in every format, and rewrites the entry for the next submission.
func TestServiceCorruptCacheEntryRecomputes(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	req := testRequest()
	ref := directRun(t, req)

	st := submitAndWait(t, client, req)
	if st.State != StateDone {
		t.Fatalf("first job state = %s", st.State)
	}
	j, _ := coord.Job(st.ID)
	if err := faults.CorruptArtifactValue(coord.cache.path(j.Key)); err != nil {
		t.Fatal(err)
	}

	st2 := submitAndWait(t, client, req)
	if st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmission over a corrupt entry: state=%s cached=%v, want a recomputed done job", st2.State, st2.Cached)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["cache_corrupt_dropped"] != 1 {
		t.Fatalf("cache_corrupt_dropped = %d, want 1", stats["cache_corrupt_dropped"])
	}
	checkReports(t, coord, st2.ID, ref)

	if st3, err := client.Submit(req); err != nil || !st3.Cached {
		t.Fatalf("third submission: cached=%v, err %v; want a hit on the rewritten entry", st3.Cached, err)
	}
}

// TestServiceRestartResume: a coordinator dies mid-job (simulated by a
// one-attempt budget against a worker that crashes after its last
// durable cell but before the artifact write, then Close); a new
// coordinator over the same DataDir accepts the resubmission, reuses
// the dead attempt's cell stream — the worker resumes rather than
// recomputes — and serves bytes identical to a direct run. The fault
// plan is shared, so the restarted coordinator's attempts are each
// shard's second and run clean.
func TestServiceRestartResume(t *testing.T) {
	dataDir := t.TempDir()
	plan := &faults.Plan{Mix: []faults.Weighted{{Kind: faults.CrashBeforeArtifact, Weight: 1}}, ReliableAfter: 1}
	cfg := Config{
		DataDir:        dataDir,
		ExperimentsBin: experimentsBin,
		PollInterval:   50 * time.Millisecond,
		MaxAttempts:    1, // the crashed attempt exhausts the budget: job fails, dirs stay
		WrapWorker:     func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) },
		Logf:           t.Logf,
	}
	coord1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	st, err := coord1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := coord1.Job(st.ID)
	for !terminalState(j1.Status().State) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := j1.Status().State; got != StateFailed {
		t.Fatalf("first run state = %s, want failed", got)
	}
	coord1.Close()

	// Each shard streamed its durable cells before crashing.
	resumable := 0
	for shard := 0; shard < 2; shard++ {
		stream := filepath.Join(dataDir, "jobs", st.ID,
			fmt.Sprintf("shard_%d", shard), "attempt_0", shardBase(shard, 2)+".cells.jsonl")
		if data, err := os.ReadFile(stream); err == nil && len(bytes.TrimSpace(data)) > 0 {
			resumable++
		}
	}
	if resumable == 0 {
		t.Fatal("no shard left a resumable cell stream behind")
	}

	// The restarted coordinator: same DataDir, same job numbering, so
	// the resubmission lands in the same attempt dirs and resumes them.
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	srv := httptest.NewServer(coord2.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	st2 := submitAndWait(t, client, req)
	if st2.State != StateDone {
		t.Fatalf("resumed job state = %s", st2.State)
	}
	served, err := client.Report(st2.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after restart-resume differs from direct run")
	}
}

// TestServiceCrashDuringMergeRecovers: the coordinator completes every
// shard, then "crashes" between the last shard and the merge (the
// preMergeHook seam). The restarted coordinator recovers each shard's
// already-validated artifact from disk — zero worker dispatches — and
// merges to bytes identical to a direct run.
func TestServiceCrashDuringMergeRecovers(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{
		DataDir:        dataDir,
		ExperimentsBin: experimentsBin,
		PollInterval:   50 * time.Millisecond,
		Logf:           t.Logf,
	}
	crashed := cfg
	crashed.preMergeHook = func(j *Job) error {
		return context.Canceled // any error: the job fails in the merge window
	}
	coord1, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	st, err := coord1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := coord1.Job(st.ID)
	for !terminalState(j1.Status().State) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := j1.Status(); got.State != StateFailed || got.ShardsDone != got.Shards {
		t.Fatalf("crash-window run: state=%s shards %d/%d", got.State, got.ShardsDone, got.Shards)
	}
	coord1.Close()

	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	srv := httptest.NewServer(coord2.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	st2 := submitAndWait(t, client, req)
	if st2.State != StateDone {
		t.Fatalf("recovered job state = %s", st2.State)
	}
	if got := coord2.Counters.ShardsRecovered.Load(); got != int64(st2.Shards) {
		t.Fatalf("shards_recovered = %d, want %d", got, st2.Shards)
	}
	if got := coord2.Counters.WorkersSpawned.Load(); got != 0 {
		t.Fatalf("recovery dispatched %d workers, want 0", got)
	}
	served, err := client.Report(st2.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after merge recovery differs from direct run")
	}
}

// TestServiceDrain: BeginDrain refuses new submissions — 503 over
// HTTP — while existing jobs stay queryable.
func TestServiceDrain(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL, Retries: -1}

	st := submitAndWait(t, client, testRequest())
	coord.BeginDrain()
	if _, err := client.Submit(testRequest()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit during drain: %v, want 503", err)
	}
	if _, err := client.Status(st.ID); err != nil {
		t.Fatalf("status during drain: %v", err)
	}
}

// TestClientRetriesTransientFailures: the client survives a window of
// 5xx responses (a restarting or draining coordinator) and gives up
// with the last error after its attempt budget.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"jobs_done": 7}`))
	}))
	defer srv.Close()

	client := &Client{BaseURL: srv.URL, Retries: 5, RetryBase: time.Millisecond}
	stats, err := client.Stats()
	if err != nil {
		t.Fatalf("stats through 5xx window: %v", err)
	}
	if stats["jobs_done"] != 7 || calls != 3 {
		t.Fatalf("stats=%v after %d calls", stats, calls)
	}

	calls = 0
	hopeless := &Client{BaseURL: srv.URL, Retries: 2, RetryBase: time.Millisecond}
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	if _, err := hopeless.Stats(); err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("exhausted retries: %v", err)
	}
}
