package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dsmphase/internal/faults"
	"dsmphase/internal/harness"
	"dsmphase/internal/workloads"
)

// experimentsBin is the worker binary every end-to-end test execs,
// built once in TestMain.
var experimentsBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dsmphased-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", experimentsBin, "dsmphase/cmd/experiments").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building experiments worker: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// testRequest is the small fast grid the end-to-end tests submit:
// figure2 × lu × test inputs, 3 cells.
func testRequest() JobRequest {
	return JobRequest{
		Grid:     "figure2",
		Size:     "test",
		Apps:     []string{"lu"},
		Interval: 20_000,
	}
}

func newTestCoordinator(t *testing.T, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		DataDir:        t.TempDir(),
		ExperimentsBin: experimentsBin,
		Workers:        []string{"local", "local"},
		PollInterval:   50 * time.Millisecond,
		Logf:           t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// directReport renders the request's grid by running it in-process —
// the reference bytes every served report must match exactly.
func directReport(t *testing.T, req JobRequest, format string) []byte {
	t.Helper()
	req.normalize()
	g, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := harness.RunGrids([]harness.NamedGrid{g}, 0, 1, harness.Options{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if g.Tuning {
		rep, err := g.Spec.AssembleTuning(results[0])
		if err != nil {
			t.Fatal(err)
		}
		enc, err := harness.NewTuningEncoder(format, req.Grid)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&buf, rep); err != nil {
			t.Fatal(err)
		}
	} else {
		enc, err := harness.NewEncoder(format, req.Grid)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&buf, g.Spec.Assemble(results[0])); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func submitAndWait(t *testing.T, client *Client, req JobRequest) JobStatus {
	t.Helper()
	st, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = client.Wait(st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServiceEndToEnd is the acceptance pin: one submission travels
// Spec → shard dispatch over two local workers → JSONL streams → merge
// → served report, and the served bytes equal a direct in-process run
// in every encoder format.
func TestServiceEndToEnd(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	st := submitAndWait(t, client, req)
	if st.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	if st.CellsDone != st.CellsTotal || st.CellsTotal == 0 {
		t.Fatalf("done job reports %d/%d cells", st.CellsDone, st.CellsTotal)
	}

	for _, format := range harness.EncoderNames() {
		served, err := client.Report(st.ID, format, req.Grid)
		if err != nil {
			t.Fatalf("%s report: %v", format, err)
		}
		if direct := directReport(t, req, format); !bytes.Equal(served, direct) {
			t.Errorf("served %s report differs from direct run:\n--- served ---\n%s\n--- direct ---\n%s",
				format, served, direct)
		}
	}

	// The CLI's -format front end renders the same bytes the coordinator
	// serves under its default title (the grid name).
	served, err := client.Report(st.ID, "csv", "")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := exec.Command(experimentsBin, "-grids", req.Grid, "-size", req.Size,
		"-apps", strings.Join(req.Apps, ","), "-interval", fmt.Sprint(req.Interval), "-format", "csv").Output()
	if err != nil {
		t.Fatalf("experiments -format csv: %v", err)
	}
	if !bytes.Equal(served, cli) {
		t.Errorf("served csv report differs from experiments -format csv:\n--- served ---\n%s\n--- cli ---\n%s", served, cli)
	}

	// The merged artifact is well-formed and client-side mergeable: the
	// cmd/experiments -submit path reassembles reports from it.
	art, err := client.Artifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if art.Of != 1 || len(art.Grids) != 1 || art.Grids[0].Name != req.Grid {
		t.Fatalf("merged artifact shape: of=%d grids=%v", art.Of, len(art.Grids))
	}
	g, err := func() (harness.NamedGrid, error) { r := req; r.normalize(); return r.compile() }()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := harness.MergeShards(g.Spec, g.Name, []*harness.ShardArtifact{art}); err != nil {
		t.Fatalf("client-side merge of served artifact: %v", err)
	}

	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["workers_spawned"] == 0 || stats["jobs_done"] != 1 {
		t.Fatalf("stats after one job: %v", stats)
	}
}

// TestClientReportTitleRoundTrip: report titles reach the handler
// intact whatever characters they hold, and an empty title leaves the
// query at the bare format.
func TestClientReportTitleRoundTrip(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	var lastQuery atomic.Value
	handler := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastQuery.Store(r.URL.RawQuery)
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	st := submitAndWait(t, client, req)
	req.normalize()
	g, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Spec.Run(harness.Options{})
	for _, title := range []string{"C++ & C#", "100% a+b=c", "x?y/z"} {
		served, err := client.Report(st.ID, "text", title)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := (harness.TextEncoder{Title: title}).Encode(&want, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want.Bytes()) {
			t.Errorf("title %q mangled in transit:\n%s", title, served)
		}
	}
	if _, err := client.Report(st.ID, "csv", ""); err != nil {
		t.Fatal(err)
	}
	if q := lastQuery.Load(); q != "format=csv" {
		t.Errorf("empty-title query = %q, want format=csv", q)
	}
}

// TestServiceTuningEndToEnd covers the other encoder family: a tuning
// grid served through tuning shard workers and the TuningEncoder set.
func TestServiceTuningEndToEnd(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	req.Grid = "tuning"
	st := submitAndWait(t, client, req)
	for _, format := range harness.TuningEncoderNames() {
		served, err := client.Report(st.ID, format, req.Grid)
		if err != nil {
			t.Fatalf("%s tuning report: %v", format, err)
		}
		if direct := directReport(t, req, format); !bytes.Equal(served, direct) {
			t.Errorf("served %s tuning report differs from direct run", format)
		}
	}
}

// TestServiceCacheHit: a repeat submission of the same parameters is
// answered from the disk cache — instantly done, flagged cached, and
// without spawning a single worker process.
func TestServiceCacheHit(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	first := submitAndWait(t, client, req)
	statsBefore, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}

	second, err := client.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("repeat submission: state=%s cached=%v, want instant cached done", second.State, second.Cached)
	}
	statsAfter, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsAfter["workers_spawned"] != statsBefore["workers_spawned"] {
		t.Fatalf("cache hit spawned workers: %d -> %d",
			statsBefore["workers_spawned"], statsAfter["workers_spawned"])
	}
	if statsAfter["cache_hits"] != 1 {
		t.Fatalf("cache_hits = %d, want 1", statsAfter["cache_hits"])
	}

	// And the cached report still matches the first job's bytes.
	a, err := client.Report(first.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Report(second.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cached job's report differs from the original")
	}
}

// TestServiceWorkerCrashResumes is the fault-tolerance pin: every
// shard's first worker attempt dies mid-append (the fault plane's
// TornStream: the artifact is lost and the cell stream's last line is
// cut), the coordinator re-dispatches, the retry resumes from the dead
// attempt's cell stream, and the final report is still byte-identical
// to a direct run.
func TestServiceWorkerCrashResumes(t *testing.T) {
	plan := &faults.Plan{Mix: []faults.Weighted{{Kind: faults.TornStream, Weight: 1}}, ReliableAfter: 1}
	coord := newTestCoordinator(t, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.WrapWorker = func(w Worker) Worker { return faults.Wrap(w, plan, t.Logf) }
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	st := submitAndWait(t, client, req)
	if st.State != StateDone {
		t.Fatalf("job state = %s", st.State)
	}
	if got := coord.Counters.ShardsRetried.Load(); got == 0 {
		t.Fatal("no shard was retried despite the injected crashes")
	}
	served, err := client.Report(st.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after crash-and-resume differs from direct run")
	}
}

// TestServiceStragglerBackup: with a microscopic straggler threshold,
// the coordinator races a backup attempt against the primary; first
// validated completion wins, the duplicate is a no-op, and the report
// is unharmed.
func TestServiceStragglerBackup(t *testing.T) {
	coord := newTestCoordinator(t, func(cfg *Config) {
		cfg.DefaultShards = 1 // one shard, so the second worker is idle
		cfg.StragglerAfter = time.Millisecond
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := testRequest()
	st := submitAndWait(t, client, req)
	if st.State != StateDone {
		t.Fatalf("job state = %s", st.State)
	}
	if got := coord.Counters.Stragglers.Load(); got == 0 {
		t.Fatal("no straggler backup was dispatched despite the 1ms threshold")
	}
	served, err := client.Report(st.ID, "json", req.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if direct := directReport(t, req, "json"); !bytes.Equal(served, direct) {
		t.Error("report after straggler race differs from direct run")
	}
}

// TestServiceEvents: the SSE endpoint replays a finished job's history
// — submission to done — including at least one cell-level progress
// event sourced from the shard streams.
func TestServiceEvents(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	st := submitAndWait(t, client, testRequest())
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{`"type":"queued"`, `"type":"start"`, `"type":"dispatch"`, `"type":"merged"`, `"type":"done"`} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("event stream lacks %s:\n%s", want, text)
		}
	}
}

// TestServiceShippedWorkloads: a submission may carry workload
// definitions in the request body — here a DSL spec and an ingested
// trace. The coordinator validates and registers them at submit time,
// ships the canonical sources to every worker shard, and the served
// report is byte-identical to a direct in-process run in every
// encoder format.
func TestServiceShippedWorkloads(t *testing.T) {
	osc, err := workloads.LoadSpecFile(filepath.Join("..", "..", "examples", "adversarial_phases", "oscillate.wdl"))
	if err != nil {
		t.Fatal(err)
	}
	ping, err := workloads.LoadSpecFile(filepath.Join("..", "..", "examples", "trace_ingest", "pingpong.wdl"))
	if err != nil {
		t.Fatal(err)
	}

	coord := newTestCoordinator(t, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	req := JobRequest{
		Grid:      "figure2",
		Size:      "test",
		Apps:      []string{"oscillate", "pingpong"},
		Interval:  16_000,
		Workloads: []string{string(osc.Source()), string(ping.Source())},
	}
	st := submitAndWait(t, client, req)
	if st.State != StateDone {
		t.Fatalf("job state = %s", st.State)
	}
	for _, format := range harness.EncoderNames() {
		served, err := client.Report(st.ID, format, req.Grid)
		if err != nil {
			t.Fatalf("%s report: %v", format, err)
		}
		if direct := directReport(t, req, format); !bytes.Equal(served, direct) {
			t.Errorf("served %s report for shipped workloads differs from direct run", format)
		}
	}

	// Submit-time validation: malformed definitions and conflicting
	// redefinitions of an already-registered name fail at POST, not
	// halfway through a dispatched shard.
	if _, err := coord.Submit(JobRequest{Grid: "figure2", Size: "test", Workloads: []string{"{"}}); err == nil {
		t.Fatal("malformed workload spec accepted")
	}
	conflict := `{"name":"oscillate","description":"redefined","phases":[{"blocks":[{"kind":"stride","count":1}]}]}`
	if _, err := coord.Submit(JobRequest{Grid: "figure2", Size: "test", Apps: []string{"oscillate"}, Workloads: []string{conflict}}); err == nil {
		t.Fatal("conflicting redefinition of a shipped workload accepted")
	}
}

// TestSubmitValidation: a bogus grid or size fails at submission, not
// at dispatch.
func TestSubmitValidation(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	if _, err := coord.Submit(JobRequest{Grid: "figure9"}); err == nil {
		t.Fatal("unknown grid accepted")
	}
	if _, err := coord.Submit(JobRequest{Grid: "figure2", Size: "gargantuan"}); err == nil {
		t.Fatal("unknown size accepted")
	}
	if _, err := coord.Submit(JobRequest{Grid: "figure2", Size: "test", Protocols: []string{"token-ring"}}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}
