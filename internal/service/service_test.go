package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// terminalState reports whether a job state is final.
func terminalState(s string) bool {
	return s == StateDone || s == StateDegraded || s == StateFailed
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

// directRef is a request's reference material from one in-process run
// of its grid — no shards, workers or coordinator: the report in every
// encoder format, which every served report must match byte for byte,
// and the cells by plan index with the wall clock, the artifact's only
// nondeterministic field, zeroed.
type directRef struct {
	reports map[string][]byte
	cells   map[int]harness.ShardCell
}

func directRun(t *testing.T, req JobRequest) directRef {
	t.Helper()
	req.normalize()
	g, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := harness.RunGrids([]harness.NamedGrid{g}, 0, 1, harness.Options{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := all[0]
	ref := directRef{reports: map[string][]byte{}, cells: map[int]harness.ShardCell{}}
	// Both encoder families register the same format names.
	for _, format := range harness.EncoderNames() {
		var buf bytes.Buffer
		if g.Tuning {
			rep, err := g.Spec.AssembleTuning(results)
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
			if err := enc.Encode(&buf, g.Spec.Assemble(results)); err != nil {
				t.Fatal(err)
			}
		}
		ref.reports[format] = buf.Bytes()
	}
	sg, err := harness.NewShardGrid(g.Name, g.Spec, results, g.Tuning, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range sg.Results {
		sc.WallNS = 0
		ref.cells[sc.Index] = sc
	}
	return ref
}

// directReport is the direct run's report in one format.
func directReport(t *testing.T, req JobRequest, format string) []byte {
	t.Helper()
	return directRun(t, req).reports[format]
}

// sameCell compares two serialized cells, the wall clock aside.
func sameCell(a, b harness.ShardCell) bool {
	a.WallNS, b.WallNS = 0, 0
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// waitJob polls a job to a terminal state, failing the test past the
// deadline.
func waitJob(t *testing.T, coord *Coordinator, id string, timeout time.Duration) JobStatus {
	t.Helper()
	j, ok := coord.Job(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		st := j.Status()
		if terminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
	}
}

// checkReports renders a finished job in every encoder format and
// wants the direct run's bytes.
func checkReports(t *testing.T, coord *Coordinator, id string, ref directRef) {
	t.Helper()
	j, _ := coord.Job(id)
	for format, want := range ref.reports {
		var buf bytes.Buffer
		if err := j.RenderReport(coord, &buf, format, j.Req.Grid); err != nil {
			t.Errorf("%s report: %v", format, err)
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("served %s report differs from the direct run", format)
		}
	}
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

// TestSubmitValidation: a bogus grid, size or protocol fails at
// submission, not at dispatch, and a request that would size the
// coordinator's memory (an oversized body, replicates over the limit,
// more shards than plan cells) is a 400 before any job, and so any
// plan, exists.
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

	over := testRequest()
	over.Replicates = maxReplicates + 1
	if _, err := coord.Submit(over); err == nil || !strings.Contains(err.Error(), "replicates") {
		t.Fatalf("replicates over the limit: %v", err)
	}
	tooWide := testRequest() // 3 cells
	tooWide.Shards = 4
	if _, err := coord.Submit(tooWide); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("more shards than cells: %v", err)
	}
	tooWide.Shards = 3
	tooWide.normalize()
	if _, err := tooWide.compile(); err != nil {
		t.Fatalf("one shard per cell rejected: %v", err)
	}
	// Unknown app names are kept, so each distinct one would add cells;
	// repeats are dropped before the count.
	manyApps, repeatedApps := testRequest(), testRequest()
	for i := 0; i <= maxApps; i++ {
		manyApps.Apps = append(manyApps.Apps, fmt.Sprintf("app%d", i))
		repeatedApps.Apps = append(repeatedApps.Apps, repeatedApps.Apps[0])
	}
	if _, err := coord.Submit(manyApps); err == nil || !strings.Contains(err.Error(), "apps") {
		t.Fatalf("%d distinct apps: %v", len(manyApps.Apps), err)
	}
	repeatedApps.normalize()
	if len(repeatedApps.Apps) != len(testRequest().Apps) {
		t.Fatalf("apps %v kept their repeats", repeatedApps.Apps)
	}
	if _, err := repeatedApps.compile(); err != nil {
		t.Fatalf("%d repeats of one app rejected: %v", maxApps+1, err)
	}

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(strings.NewReader(`{"grid":"figure2","replicates":1000000000}`)); code != http.StatusBadRequest {
		t.Fatalf("a billion replicates: status %d, want 400", code)
	}
	if code := post(strings.NewReader(`{"grid":"figure2","size":"test","apps":["lu"],"shards":1000000000}`)); code != http.StatusBadRequest {
		t.Fatalf("a billion shards: status %d, want 400", code)
	}
	if code := post(strings.NewReader(`{"grid":"figure2","size":"test","apps":["lu"]} {"grid":`)); code != http.StatusBadRequest {
		t.Fatalf("a request followed by junk: status %d, want 400", code)
	}
	var names []string
	for i := 0; i < 100_000; i++ {
		names = append(names, fmt.Sprintf("app%d", i))
	}
	body, err := json.Marshal(JobRequest{Grid: "figure2", Size: "test", Apps: names})
	if err != nil {
		t.Fatal(err)
	}
	if code := post(bytes.NewReader(body)); code != http.StatusBadRequest {
		t.Fatalf("100,000 distinct apps: status %d, want 400", code)
	}

	// Body size is judged on the declared length, so these bodies are
	// a small request padded with whitespace: an oversized one is
	// rejected before a byte is read, and an accepted one's padding
	// streams through the trailing-data check.
	submit := func(size int64) (code int, read int64) {
		t.Helper()
		body := &countingReader{r: io.MultiReader(strings.NewReader(`{"grid":"figure2","size":"test","apps":["lu"],"interval":20000}`),
			io.LimitReader(fillReader(' '), size))}
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
		req.ContentLength = size
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		return rec.Code, body.n
	}
	if code, read := submit(maxRequestBytes + 1); code != http.StatusBadRequest || read != 0 {
		t.Fatalf("oversized body: status %d after reading %d bytes, want 400 before reading", code, read)
	}
	if jobs := coord.JobList(); len(jobs) != 0 {
		t.Fatalf("rejected requests left %d jobs", len(jobs))
	}
	// The requests experiments -submit builds for the largest test-size
	// trace capture of a built-in (water, 64 nodes) and for the 8-node
	// small-size lu capture are accepted.
	if code, _ := submit(222_000_978); code != http.StatusAccepted {
		t.Fatalf("a request the size of the largest test-size capture: status %d, want 202", code)
	}
	if code, _ := submit(445_452_064); code != http.StatusAccepted {
		t.Fatalf("a request the size of the 8-node small-size lu capture: status %d, want 202", code)
	}
}

// TestSubmitQueueFullLeavesNoJob: a submission refused because the
// queue is full is neither registered nor counted, so no job is left
// that never finishes, and concurrent submissions take distinct IDs.
// The coordinator is closed first, so nothing drains the queue.
func TestSubmitQueueFullLeavesNoJob(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	coord.Close()
	req := testRequest()
	const submitters = 4
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cap(coord.queue)/submitters; i++ {
				if _, err := coord.Submit(req); err != nil {
					t.Errorf("submission: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := coord.Submit(req); !errors.Is(err, errQueueFull) {
		t.Fatalf("submission past a full queue: %v, want queue full", err)
	}
	jobs := coord.JobList()
	if len(jobs) != cap(coord.queue) {
		t.Fatalf("%d jobs listed, want the %d queued", len(jobs), cap(coord.queue))
	}
	for i, st := range jobs {
		if want := fmt.Sprintf("job-%d", i+1); st.ID != want || st.State != StateQueued {
			t.Fatalf("job %d is %s, %s (%s); want %s, queued", i, st.ID, st.State, st.Error, want)
		}
	}
	if got := coord.Counters.JobsSubmitted.Load(); got != int64(cap(coord.queue)) {
		t.Fatalf("jobs_submitted = %d, want %d", got, cap(coord.queue))
	}
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	if len(p) > 0 {
		p[0] = byte(f)
		for n := 1; n < len(p); n *= 2 {
			copy(p[n:], p[:n])
		}
	}
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestCloseLaunchesNothing shuts the coordinator down while two
// workers run the first two of three shards, and lets an attempt end
// before the loop looks again: the loop must wait the attempts out
// without launching the waiting third shard.
func TestCloseLaunchesNothing(t *testing.T) {
	for i := 0; i < 10; i++ {
		var coord *Coordinator
		returned, shutdown := make(chan struct{}, 8), make(chan struct{})
		coord = newTestCoordinator(t, func(cfg *Config) {
			cfg.WrapWorker = func(Worker) Worker { return blockingWorker(returned) }
			cfg.Logf = func(format string, args ...any) {
				if strings.Contains(fmt.Sprintf(format, args...), "shard 1 attempt 0") {
					// On the loop, while shard 0 runs: shut down, and let
					// shard 0's attempt report before the loop selects.
					coord.cancel()
					<-returned
					time.Sleep(10 * time.Millisecond)
					close(shutdown)
				}
			}
		})
		req := testRequest()
		req.Shards = 3
		if _, err := coord.Submit(req); err != nil {
			t.Fatal(err)
		}
		<-shutdown
		coord.Close()
		if n := coord.Counters.ShardsDispatched.Load(); n != 2 {
			t.Fatalf("run %d: %d shards dispatched, want 2 (nothing launched during shutdown)", i, n)
		}
	}
}

// blockingWorker runs each attempt until cancelled, then announces
// its return.
type blockingWorker chan struct{}

func (blockingWorker) Name() string { return "blocking" }

func (b blockingWorker) Run(ctx context.Context, _ string, _ []string) error {
	<-ctx.Done()
	b <- struct{}{}
	return ctx.Err()
}

// TestHTTPStatusCodes: each error a result route or a submission can
// meet has its status, and the body names the cause. A job not done is
// 409 on both result routes, an unknown format 400, an evicted result
// 410 on both, and a full or draining coordinator 503. The coordinator
// is closed first, so a submitted job stays queued; the evicted job is
// a done job whose cache entry is absent, which is what eviction leaves
// (TestServiceMemoryBoundedByCache evicts for real).
func TestHTTPStatusCodes(t *testing.T) {
	coord := newTestCoordinator(t, nil)
	coord.Close()
	queued, err := coord.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	req.normalize()
	g, err := req.compile()
	if err != nil {
		t.Fatal(err)
	}
	evicted := &Job{ID: "job-evicted", Req: req, Grid: g, Key: JobKey(g), state: StateDone}
	coord.mu.Lock()
	coord.jobs[evicted.ID] = evicted
	coord.mu.Unlock()

	submit := `{"grid":"figure2","size":"test","apps":["lu"],"interval":20000}`
	for _, row := range []struct {
		name, method, path string
		setup              func()
		want               int
		cause              string // in the error body
	}{
		{"report of a queued job", "GET", "/v1/jobs/" + queued.ID + "/report?format=csv", nil, http.StatusConflict, "not done"},
		{"artifact of a queued job", "GET", "/v1/jobs/" + queued.ID + "/artifact", nil, http.StatusConflict, "not done"},
		{"unknown format", "GET", "/v1/jobs/job-evicted/report?format=pdf", nil, http.StatusBadRequest, "unknown report format"},
		{"evicted report", "GET", "/v1/jobs/job-evicted/report?format=csv", nil, http.StatusGone, "evicted"},
		{"evicted artifact", "GET", "/v1/jobs/job-evicted/artifact", nil, http.StatusGone, "evicted"},
		{"queue full", "POST", "/v1/jobs", func() {
			for len(coord.queue) < cap(coord.queue) {
				coord.queue <- &Job{}
			}
		}, http.StatusServiceUnavailable, "queue full"},
		{"draining", "POST", "/v1/jobs", func() {
			for len(coord.queue) > 0 {
				<-coord.queue
			}
			coord.BeginDrain()
		}, http.StatusServiceUnavailable, "draining"},
	} {
		if row.setup != nil {
			row.setup()
		}
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(row.method, row.path, strings.NewReader(submit)))
		if rec.Code != row.want || !strings.Contains(rec.Body.String(), row.cause) {
			t.Errorf("%s: status %d, body %s; want %d naming %q", row.name, rec.Code, rec.Body, row.want, row.cause)
		}
	}
}
