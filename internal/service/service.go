package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/harness"
	"dsmphase/internal/rng"
	"dsmphase/internal/workloads"
)

// Config configures a Coordinator. The zero value of every field has a
// sensible default; only DataDir and ExperimentsBin are required.
type Config struct {
	// DataDir is the coordinator's state root: the result cache, per-job
	// shard work dirs, and persisted ETA priors live under it.
	DataDir string
	// ExperimentsBin is the path of the cmd/experiments binary workers
	// exec.
	ExperimentsBin string
	// Workers is the worker pool, one "local" entry per worker; empty
	// defaults to two local workers.
	Workers []string
	// DefaultShards is the shard fan-out of jobs that do not request one;
	// 0 uses the worker-pool size.
	DefaultShards int
	// CacheBytes bounds the result cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// StragglerAfter is how long a shard attempt may run before a backup
	// attempt is dispatched to an idle worker (first completion wins;
	// duplicate completions are no-ops). 0 = 10 minutes.
	StragglerAfter time.Duration
	// MaxAttempts bounds dispatch attempts per shard, stragglers
	// included. 0 = 3.
	MaxAttempts int
	// RetryBase is the backoff before a shard's first retry; each
	// further retry doubles it, with deterministic jitter in
	// [0.5d, 1.5d) keyed on (fingerprint, shard, attempt), capped at
	// RetryMax. 0 = 250ms.
	RetryBase time.Duration
	// RetryMax caps the retry backoff. 0 = 1 minute.
	RetryMax time.Duration
	// AttemptTimeout bounds one dispatch attempt's wall clock: an
	// attempt still running after it is cancelled and counted failed —
	// the only way to reclaim a hung worker process. 0 = no timeout.
	AttemptTimeout time.Duration
	// QuarantineAfter benches a worker after N consecutive failed
	// attempts (artifact validation included). A benched worker is
	// dispatched only when no healthy worker is idle, as a probe; a
	// probe success restores it. 0 = 5.
	QuarantineAfter int
	// WrapWorker, when non-nil, wraps every parsed worker — the seam
	// the fault-injection plane (internal/faults.Wrap) plugs into.
	WrapWorker func(Worker) Worker
	// WorkerParallel is the -parallel value passed to each worker
	// process; 0 keeps the worker's own default (all CPUs).
	WorkerParallel int
	// PollInterval is the cell-progress poll cadence over the shard
	// streams. 0 = 500ms.
	PollInterval time.Duration
	// Logf, if non-nil, receives coordinator log lines.
	Logf func(format string, args ...any)

	// preMergeHook, when set (package-internal tests only), runs after
	// a job's last shard completes and before the merged artifact is
	// assembled; a non-nil error fails the job there — simulating a
	// coordinator crash in the completion/merge window.
	preMergeHook func(*Job) error
}

func (c *Config) fill() {
	if len(c.Workers) == 0 {
		c.Workers = []string{"local", "local"}
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = len(c.Workers)
	}
	if c.StragglerAfter <= 0 {
		c.StragglerAfter = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Minute
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 5
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// JobRequest is the POST /v1/jobs body: a named grid plus the
// wire-serializable Spec parameters. Zero fields take the CLI's
// defaults (size small, the paper application panel, seed 1, one
// replicate), so a submission and a `cmd/experiments` invocation with
// the same flags compile the same plan fingerprint.
type JobRequest struct {
	// Grid names the experiment grid ("figure2", "figure4", "ablation",
	// "tuning").
	Grid string `json:"grid"`
	// Size is the input scale ("test", "small", "full"; "" = small).
	Size string `json:"size,omitempty"`
	// Apps lists workloads or one panel alias; empty = the paper panel.
	Apps []string `json:"apps,omitempty"`
	// Protocols lists coherence backends; empty = directory only.
	Protocols []string `json:"protocols,omitempty"`
	// Interval is the total sampling interval (0 = the 300k default).
	Interval uint64 `json:"interval,omitempty"`
	// Seed is the workload base seed (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Replicates is seeds per configuration (0 = 1).
	Replicates int `json:"replicates,omitempty"`
	// Shards overrides the job's shard fan-out (0 = server default).
	Shards int `json:"shards,omitempty"`
	// Workloads are canonical workload-DSL sources (spec or inlined
	// trace) shipped with the job. Each is registered at submission —
	// a malformed spec fails the POST — and written into every worker
	// attempt's dir, so Apps can name workloads the coordinator binary
	// has never heard of.
	Workloads []string `json:"workloads,omitempty"`
	// AllowPartial opts into graceful degradation: a shard that
	// exhausts its attempt budget completes the job in the "degraded"
	// state instead of failing it — the report carries per-cell errors
	// on exactly the injured (never-recovered) cells, and the result is
	// never cached.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// normalize applies the CLI-equivalent defaults in place.
func (r *JobRequest) normalize() {
	if r.Size == "" {
		r.Size = "small"
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Replicates < 1 {
		r.Replicates = 1
	}
}

// compile builds the request's named grid (and therefore its plan and
// fingerprint) exactly as cmd/experiments would under the same flags.
// Shipped workload definitions register first: the grid's fingerprint
// folds in their definition hashes, and registration is idempotent, so
// resubmitting the same spec is a cache hit while a changed definition
// under the same name is rejected here — at submission, not mid-run.
func (r *JobRequest) compile() (harness.NamedGrid, error) {
	for i, src := range r.Workloads {
		sw, err := workloads.ParseSpec([]byte(src))
		if err != nil {
			return harness.NamedGrid{}, fmt.Errorf("workloads[%d]: %w", i, err)
		}
		if err := sw.Register(); err != nil {
			return harness.NamedGrid{}, fmt.Errorf("workloads[%d]: %w", i, err)
		}
	}
	size, err := workloads.ParseSize(r.Size)
	if err != nil {
		return harness.NamedGrid{}, err
	}
	var kinds []coherence.Kind
	for _, name := range r.Protocols {
		k, err := coherence.ParseKind(name)
		if err != nil {
			return harness.NamedGrid{}, err
		}
		kinds = append(kinds, k)
	}
	return harness.BuildGrid(r.Grid, harness.GridParams{
		Size:       size,
		Apps:       r.Apps,
		Protocols:  kinds,
		Interval:   r.Interval,
		Seed:       r.Seed,
		Replicates: r.Replicates,
	})
}

// workerArgs is the -shard-dir handshake: the argument vector a worker
// process runs to produce this shard's artifact (and its resumable
// .cells.jsonl stream) inside dir.
func (c *Config) workerArgs(req JobRequest, shard, of int, dir string) []string {
	args := []string{
		"-grids", req.Grid,
		"-size", req.Size,
		"-interval", strconv.FormatUint(req.Interval, 10),
		"-seed", strconv.FormatUint(req.Seed, 10),
		"-replicates", strconv.Itoa(req.Replicates),
	}
	if len(req.Apps) > 0 {
		args = append(args, "-apps", strings.Join(req.Apps, ","))
	}
	if len(req.Protocols) > 0 {
		args = append(args, "-protocol", strings.Join(req.Protocols, ","))
	}
	if c.WorkerParallel > 0 {
		args = append(args, "-parallel", strconv.Itoa(c.WorkerParallel))
	}
	for i := range req.Workloads {
		args = append(args, "-workload-file", filepath.Join(dir, workloadSpecName(i)))
	}
	return append(args, "-shard", fmt.Sprintf("%d/%d", shard, of), "-shard-dir", dir)
}

// workloadSpecName is the canonical name a shipped workload definition
// is written under inside an attempt dir.
func workloadSpecName(i int) string { return fmt.Sprintf("workload_%d.wdl", i) }

// writeWorkloadSpecs materializes a job's shipped workload definitions
// inside an attempt dir, where workerArgs points -workload-file.
func writeWorkloadSpecs(dir string, sources []string) error {
	for i, src := range sources {
		if err := os.WriteFile(filepath.Join(dir, workloadSpecName(i)), []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateMerging = "merging"
	StateDone    = "done"
	// StateDegraded is the AllowPartial terminal state: the job merged
	// and serves a report, but one or more shards exhausted their
	// attempts and their unrecovered cells carry errors.
	StateDegraded = "degraded"
	StateFailed   = "failed"
)

// terminalState reports whether a job state is final.
func terminalState(s string) bool {
	return s == StateDone || s == StateDegraded || s == StateFailed
}

// Event is one server-sent progress notification of a job. Cell-level
// events embed the same harness.ProgressEvent the CLI's stderr printer
// renders, so both surfaces consume one structured source.
type Event struct {
	// Type is the event kind: queued, start, dispatch, retry, probe,
	// straggler, recovered, quarantine, worker-restored,
	// checksum-failed, shard-done, shard-degraded, cells, merged,
	// cache-evict, cache-hit, done, degraded, failed.
	Type string `json:"type"`
	// Job is the job ID.
	Job string `json:"job"`
	// Shard is the shard index of shard-scoped events.
	Shard int `json:"shard,omitempty"`
	// Msg carries event detail (worker name, error text).
	Msg string `json:"msg,omitempty"`
	// ProgressEvent carries cell-level progress and ETA ("cells" events).
	harness.ProgressEvent
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID          string `json:"id"`
	Grid        string `json:"grid"`
	State       string `json:"state"`
	Cached      bool   `json:"cached,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	ShardsDone  int    `json:"shards_done"`
	CellsDone   int    `json:"cells_done"`
	CellsTotal  int    `json:"cells_total"`
	// Injured lists the plan indices whose cells carry errors in a
	// degraded job's report (ascending; empty unless State is
	// "degraded").
	Injured  []int      `json:"injured_cells,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Job is one submission's lifecycle. All mutable state is behind mu;
// the immutable identity (ID, request, compiled grid, cache key) is
// set at submission.
type Job struct {
	ID   string
	Req  JobRequest
	Grid harness.NamedGrid
	Key  string

	of          int
	cellsTotal  int
	fingerprint string

	mu         sync.Mutex
	state      string
	cached     bool
	err        string
	created    time.Time
	started    time.Time
	finished   time.Time
	shardsDone int
	cellsDone  int
	injured    []int                  // degraded jobs: error-carrying plan indices
	artifact   *harness.ShardArtifact // merged single-shard results
	streams    []string               // live attempt stream paths (progress poller)
	history    []Event
	subs       map[chan Event]bool
}

// publish appends an event to the job's history and fans it out to
// subscribers (slow subscribers drop events rather than block the
// dispatcher).
func (j *Job) publish(ev Event) {
	ev.Job = j.ID
	j.mu.Lock()
	j.history = append(j.history, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns the job's event history so far plus a live channel;
// call the returned cancel to unsubscribe.
func (j *Job) subscribe() (history []Event, live chan Event, cancel func()) {
	live = make(chan Event, 64)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan Event]bool{}
	}
	j.subs[live] = true
	history = append([]Event(nil), j.history...)
	j.mu.Unlock()
	return history, live, func() {
		j.mu.Lock()
		delete(j.subs, live)
		j.mu.Unlock()
	}
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Grid:        j.Req.Grid,
		State:       j.state,
		Cached:      j.cached,
		Fingerprint: j.fingerprint,
		Shards:      j.of,
		ShardsDone:  j.shardsDone,
		CellsDone:   j.cellsDone,
		CellsTotal:  j.cellsTotal,
		Injured:     append([]int(nil), j.injured...),
		Error:       j.err,
		Created:     j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Counters are the coordinator's scrape-friendly counters (GET
// /v1/stats).
type Counters struct {
	JobsSubmitted      atomic.Int64
	JobsDone           atomic.Int64
	JobsDegraded       atomic.Int64
	JobsFailed         atomic.Int64
	ShardsDispatched   atomic.Int64
	ShardsRetried      atomic.Int64
	ShardsRecovered    atomic.Int64
	Stragglers         atomic.Int64
	CacheHits          atomic.Int64
	WorkersSpawned     atomic.Int64
	WorkersQuarantined atomic.Int64
	WorkersRestored    atomic.Int64
	WorkerProbes       atomic.Int64
	ChecksumFailures   atomic.Int64
}

// Snapshot renders the counters as a stable-keyed map.
func (c *Counters) Snapshot() map[string]int64 {
	return map[string]int64{
		"jobs_submitted":          c.JobsSubmitted.Load(),
		"jobs_done":               c.JobsDone.Load(),
		"jobs_degraded":           c.JobsDegraded.Load(),
		"jobs_failed":             c.JobsFailed.Load(),
		"shards_dispatched":       c.ShardsDispatched.Load(),
		"shards_retried":          c.ShardsRetried.Load(),
		"shards_recovered":        c.ShardsRecovered.Load(),
		"stragglers_redispatched": c.Stragglers.Load(),
		"cache_hits":              c.CacheHits.Load(),
		"workers_spawned":         c.WorkersSpawned.Load(),
		"workers_quarantined":     c.WorkersQuarantined.Load(),
		"workers_restored":        c.WorkersRestored.Load(),
		"worker_probes":           c.WorkerProbes.Load(),
		"checksum_failures":       c.ChecksumFailures.Load(),
	}
}

// Coordinator is the experiment service: a job queue, a worker pool, a
// result cache, and the dispatch/merge loop connecting them.
type Coordinator struct {
	cfg      Config
	cache    *Cache
	pool     *workerPool
	queue    chan *Job
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool
	Counters Counters

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int

	etaMu    sync.Mutex
	etaPer   time.Duration
	etaCells int
}

// New builds and starts a coordinator (its dispatcher goroutine runs
// until Close).
func New(cfg Config) (*Coordinator, error) {
	cfg.fill()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if cfg.ExperimentsBin == "" {
		return nil, fmt.Errorf("service: Config.ExperimentsBin is required")
	}
	for _, d := range []string{cfg.DataDir, filepath.Join(cfg.DataDir, "jobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	cache, err := NewCache(filepath.Join(cfg.DataDir, "cache"), cfg.CacheBytes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:   cfg,
		cache: cache,
		queue: make(chan *Job, 1024),
		jobs:  map[string]*Job{},
	}
	var workers []Worker
	for i, spec := range cfg.Workers {
		w, err := ParseWorker(spec, i)
		if err != nil {
			return nil, err
		}
		if cfg.WrapWorker != nil {
			w = cfg.WrapWorker(w)
		}
		workers = append(workers, w)
	}
	c.pool = newWorkerPool(workers, cfg.QuarantineAfter)
	c.loadETA()
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wg.Add(1)
	go c.dispatch()
	return c, nil
}

// Close stops the dispatcher and cancels any running job's workers.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

// BeginDrain stops job admission: every later Submit is refused while
// running jobs (and the HTTP surface) stay up — the first half of a
// graceful shutdown. A drained-then-killed job's shard streams stay on
// disk, so a restarted coordinator resumes them mid-shard.
func (c *Coordinator) BeginDrain() {
	if !c.draining.Swap(true) {
		c.cfg.Logf("draining: no longer accepting jobs")
	}
}

// dispatch drains the job queue serially: shards of one job run in
// parallel across the pool, jobs run FIFO — admission control that
// keeps many concurrent users from thrashing one pool.
func (c *Coordinator) dispatch() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case j := <-c.queue:
			c.runJob(j)
		}
	}
}

// Submit validates, registers and enqueues a job. A submission whose
// cache key is already resident completes instantly without touching
// the queue or the pool.
func (c *Coordinator) Submit(req JobRequest) (JobStatus, error) {
	if c.draining.Load() {
		return JobStatus{}, fmt.Errorf("service: coordinator is draining, not accepting jobs")
	}
	req.normalize()
	grid, err := req.compile()
	if err != nil {
		return JobStatus{}, err
	}
	of := req.Shards
	if of <= 0 {
		of = c.cfg.DefaultShards
	}
	plan := grid.Spec.Plan()
	j := &Job{
		Req:         req,
		Grid:        grid,
		Key:         JobKey(grid),
		of:          of,
		cellsTotal:  plan.Len(),
		fingerprint: plan.Fingerprint(),
		state:       StateQueued,
		created:     time.Now(),
	}
	c.mu.Lock()
	c.nextID++
	j.ID = fmt.Sprintf("job-%d", c.nextID)
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.mu.Unlock()
	c.Counters.JobsSubmitted.Add(1)

	art, ok, dropped := c.cache.get(j.Key)
	if dropped {
		// The cached entry existed but failed its content checksum:
		// evicted, and this job recomputes it.
		j.publish(Event{Type: "cache-evict", Msg: j.Key})
		c.cfg.Logf("job %s: corrupt cache entry %s evicted, recomputing", j.ID, j.Key)
	}
	if ok {
		c.Counters.CacheHits.Add(1)
		c.Counters.JobsDone.Add(1)
		j.mu.Lock()
		j.state = StateDone
		j.cached = true
		j.started, j.finished = j.created, time.Now()
		j.artifact = art
		j.cellsDone = j.cellsTotal
		j.shardsDone = of
		j.mu.Unlock()
		j.publish(Event{Type: "cache-hit", Msg: j.Key})
		j.publish(Event{Type: "done"})
		c.cfg.Logf("job %s: %s served from cache (%s)", j.ID, req.Grid, j.Key)
		return j.Status(), nil
	}

	select {
	case c.queue <- j:
		j.publish(Event{Type: "queued"})
		c.cfg.Logf("job %s: queued %s (%d cells, %d shards, fingerprint %s)",
			j.ID, req.Grid, j.cellsTotal, of, j.fingerprint)
	default:
		j.mu.Lock()
		j.state = StateFailed
		j.err = "job queue full"
		j.mu.Unlock()
		return j.Status(), fmt.Errorf("service: job queue full")
	}
	return j.Status(), nil
}

// Job looks a job up by ID.
func (c *Coordinator) Job(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// JobList snapshots every job's status, submission order.
func (c *Coordinator) JobList() []JobStatus {
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := c.Job(id); ok {
			out = append(out, j.Status())
		}
	}
	return out
}

// shardBase is the artifact base name of the -shard-dir handshake:
// cmd/experiments writes <dir>/shard_<i>_of_<n>.json plus its
// .cells.jsonl stream sibling.
func shardBase(shard, of int) string {
	return fmt.Sprintf("shard_%d_of_%d", shard, of)
}

// runJob drives one job end to end: fan shards over the pool, poll the
// shard streams for cell-level progress, merge, cache, report.
func (c *Coordinator) runJob(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publish(Event{Type: "start"})

	jobDir := filepath.Join(c.cfg.DataDir, "jobs", j.ID)
	ctx, cancel := context.WithCancel(c.ctx)
	defer cancel()

	// The cell-progress poller: union completed plan indices across every
	// live attempt stream, feed the count through an ETA seeded with the
	// persisted prior, and publish as "cells" events.
	pollDone := make(chan struct{})
	go c.pollCells(ctx, j, pollDone)

	outs := make([]shardOutcome, j.of)
	var wg sync.WaitGroup
	for i := 0; i < j.of; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = c.runShard(ctx, j, jobDir, i)
			if outs[i].err == nil {
				j.mu.Lock()
				j.shardsDone++
				j.mu.Unlock()
				j.publish(Event{Type: "shard-done", Shard: i})
			}
		}(i)
	}
	wg.Wait()
	cancel() // stop the poller before the final state transition
	<-pollDone

	if c.ctx.Err() != nil {
		// Coordinator shutdown, not shard exhaustion: never degrade,
		// leave the job dirs for a restarted coordinator to resume.
		c.failJob(j, c.ctx.Err())
		return
	}
	exhausted := 0
	for i := range outs {
		if outs[i].err != nil {
			if !j.Req.AllowPartial {
				c.failJob(j, fmt.Errorf("shard %d/%d: %w", i, j.of, outs[i].err))
				return
			}
			exhausted++
		}
	}

	if c.cfg.preMergeHook != nil {
		if err := c.cfg.preMergeHook(j); err != nil {
			c.failJob(j, err)
			return
		}
	}

	j.mu.Lock()
	j.state = StateMerging
	j.mu.Unlock()
	artifacts := make([]*harness.ShardArtifact, 0, j.of)
	var injured []int
	for i := range outs {
		if outs[i].err == nil {
			a, err := harness.ReadShardArtifactFile(outs[i].path)
			if err != nil {
				c.failJob(j, err)
				return
			}
			artifacts = append(artifacts, a)
			continue
		}
		a, inj, err := c.synthesizeDegradedShard(j, i, outs[i].stream, outs[i].err)
		if err != nil {
			c.failJob(j, fmt.Errorf("degrading shard %d/%d: %w", i, j.of, err))
			return
		}
		j.publish(Event{Type: "shard-degraded", Shard: i,
			Msg: fmt.Sprintf("%d cells injured: %v", len(inj), outs[i].err)})
		artifacts = append(artifacts, a)
		injured = append(injured, inj...)
	}
	sort.Ints(injured)
	results, err := harness.MergeShards(j.Grid.Spec, j.Grid.Name, artifacts)
	if err != nil {
		c.failJob(j, err)
		return
	}
	// Re-serialize the merged plan-ordered results as a one-shard
	// artifact: the cache value, and the byte source every report
	// encoder renders from.
	mg, err := harness.NewShardGrid(j.Grid.Name, j.Grid.Spec, results, j.Grid.Tuning, false)
	if err != nil {
		c.failJob(j, err)
		return
	}
	merged := &harness.ShardArtifact{Format: harness.ShardFormat, Shard: 0, Of: 1, Grids: []harness.ShardGrid{mg}}
	if exhausted == 0 {
		// Degraded results never enter the cache (a later identical
		// submission deserves a fresh, possibly whole, run) and never
		// feed the ETA prior (injured cells have zero wall time).
		if err := c.cache.Put(j.Key, merged); err != nil {
			c.cfg.Logf("job %s: cache put: %v", j.ID, err)
		}
		c.updateETA(merged)
	}
	j.publish(Event{Type: "merged"})

	j.mu.Lock()
	j.artifact = merged
	j.finished = time.Now()
	j.cellsDone = j.cellsTotal - len(injured)
	j.injured = injured
	if exhausted > 0 {
		j.state = StateDegraded
	} else {
		j.state = StateDone
	}
	j.mu.Unlock()
	if exhausted > 0 {
		c.Counters.JobsDegraded.Add(1)
		j.publish(Event{Type: "degraded",
			Msg: fmt.Sprintf("%d of %d shards exhausted, %d cells injured", exhausted, j.of, len(injured))})
		c.cfg.Logf("job %s: degraded in %v (%d injured cells)",
			j.ID, time.Since(j.started).Round(time.Millisecond), len(injured))
		// Keep the job dirs: a degraded run's attempts are post-mortem
		// material, like a failed run's.
		return
	}
	c.Counters.JobsDone.Add(1)
	j.publish(Event{Type: "done"})
	c.cfg.Logf("job %s: done in %v", j.ID, time.Since(j.started).Round(time.Millisecond))
	// The per-attempt work dirs only matter for post-mortems of failed
	// jobs; a finished job's truth is the merged artifact.
	_ = os.RemoveAll(jobDir)
}

// synthesizeDegradedShard builds the artifact of a shard that
// exhausted its attempts: every cell recovered from the last attempt's
// stream keeps its real result, and each still-missing plan index
// becomes an error cell carrying the shard's failure — the same
// per-cell error isolation Assemble applies to in-process failures.
// Returns the artifact plus the injured (error-carrying) indices.
func (c *Coordinator) synthesizeDegradedShard(j *Job, shard int, streamPath string, cause error) (*harness.ShardArtifact, []int, error) {
	plan := j.Grid.Spec.Plan()
	recovered := map[int]harness.CellResult{}
	if streamPath != "" {
		if grids, err := harness.ReadCellStream(streamPath); err == nil {
			if g, ok := grids[j.Grid.Name]; ok && g.Matches(j.Grid.Name, j.fingerprint, shard, j.of, plan.Len()) {
				for _, sc := range g.Cells {
					if _, dup := recovered[sc.Index]; dup {
						continue
					}
					if r, err := sc.CellResult(); err == nil {
						recovered[sc.Index] = r
					}
				}
			}
		}
	}
	cells := plan.Cells()
	var results []harness.CellResult
	var injured []int
	for _, i := range plan.ShardIndices(shard, j.of) {
		if r, ok := recovered[i]; ok {
			results = append(results, r)
			continue
		}
		results = append(results, harness.CellResult{
			Index: i,
			Cell:  cells[i],
			Err:   fmt.Errorf("shard %d/%d exhausted its attempts: %v", shard, j.of, cause),
		})
		injured = append(injured, i)
	}
	g, err := harness.NewShardGrid(j.Grid.Name, j.Grid.Spec, results, j.Grid.Tuning, false)
	if err != nil {
		return nil, nil, err
	}
	return &harness.ShardArtifact{
		Format: harness.ShardFormat, Shard: shard, Of: j.of, Grids: []harness.ShardGrid{g},
	}, injured, nil
}

func (c *Coordinator) failJob(j *Job, err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	c.Counters.JobsFailed.Add(1)
	j.publish(Event{Type: "failed", Msg: err.Error()})
	c.cfg.Logf("job %s: failed: %v", j.ID, err)
}

// shardOutcome is one shard's terminal dispatch result: the validated
// artifact path (err == nil), or the final error plus the last
// attempt's stream path — the degraded path's recovery material.
type shardOutcome struct {
	path   string
	stream string
	err    error
}

// retryDelay is the backoff before launching retry attempt `attempt`
// (1-based): RetryBase doubling per attempt, capped at RetryMax, with
// deterministic jitter in [0.5d, 1.5d) keyed on (plan fingerprint,
// shard, attempt) — spread out in anger, replayable under test.
func (c *Coordinator) retryDelay(j *Job, shard, attempt int) time.Duration {
	d := c.cfg.RetryBase
	for i := 1; i < attempt && d < c.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	seed, _ := strconv.ParseUint(j.fingerprint, 16, 64)
	h := rng.Hash64(seed)
	h = rng.Hash64(h ^ uint64(shard+1))
	h = rng.Hash64(h ^ uint64(attempt))
	frac := float64(h%1024) / 1024 // [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}

// runShard drives one shard to a validated artifact: dispatch an
// attempt, re-dispatch on failure after an exponential backoff with
// deterministic jitter (the new attempt resumes from a copy of the
// dead attempt's cell stream), bound each attempt by AttemptTimeout,
// and dispatch a backup attempt to an idle worker when the running one
// exceeds the straggler threshold. First validated completion wins;
// losing attempts are cancelled, and a duplicate completion is simply
// ignored — each attempt writes only inside its own dir, and every
// artifact is checksum- and fingerprint-validated. Each attempt's
// verdict feeds its worker's health score (quarantine circuit
// breaker). Before dispatching anything, the shard dir left by a
// previous coordinator process is scanned for an already-valid
// artifact — the crash-during-merge recovery path.
func (c *Coordinator) runShard(ctx context.Context, j *Job, jobDir string, shard int) shardOutcome {
	if path, ok := c.recoverShard(j, jobDir, shard); ok {
		c.Counters.ShardsRecovered.Add(1)
		j.publish(Event{Type: "recovered", Shard: shard, Msg: path})
		c.cfg.Logf("job %s: shard %d recovered from previous run's artifact", j.ID, shard)
		return shardOutcome{path: path}
	}

	type outcome struct {
		dir string
		w   Worker
		err error
	}
	outcomes := make(chan outcome, c.cfg.MaxAttempts)
	attempts := 0
	running := 0
	var lastStream string
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	launch := func(w Worker, probe bool, kind string) error {
		k := attempts
		attempts++
		running++
		dir := filepath.Join(jobDir, fmt.Sprintf("shard_%d", shard), fmt.Sprintf("attempt_%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.pool.release(w)
			return err
		}
		if err := writeWorkloadSpecs(dir, j.Req.Workloads); err != nil {
			c.pool.release(w)
			return err
		}
		stream := filepath.Join(dir, shardBase(shard, j.of)+".cells.jsonl")
		if lastStream != "" && lastStream != stream {
			// Seed resume: snapshot the previous attempt's stream (readers
			// tolerate a torn tail, so copying under a live writer is safe).
			if data, err := os.ReadFile(lastStream); err == nil {
				_ = os.WriteFile(stream, data, 0o644)
			}
		}
		lastStream = stream
		j.mu.Lock()
		j.streams = append(j.streams, stream)
		j.mu.Unlock()
		args := c.cfg.workerArgs(j.Req, shard, j.of, dir)
		actx, acancel := context.WithCancel(ctx)
		if c.cfg.AttemptTimeout > 0 {
			actx, acancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		}
		cancels = append(cancels, acancel)
		c.Counters.ShardsDispatched.Add(1)
		c.Counters.WorkersSpawned.Add(1)
		if probe {
			c.Counters.WorkerProbes.Add(1)
			j.publish(Event{Type: "probe", Shard: shard, Msg: w.Name()})
		}
		j.publish(Event{Type: kind, Shard: shard, Msg: w.Name()})
		c.cfg.Logf("job %s: shard %d attempt %d on %s", j.ID, shard, k, w.Name())
		go func() {
			err := w.Run(actx, c.cfg.ExperimentsBin, args)
			if err != nil && errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
				err = fmt.Errorf("attempt timed out after %v: %w", c.cfg.AttemptTimeout, err)
			}
			c.pool.release(w)
			outcomes <- outcome{dir: dir, w: w, err: err}
		}()
		return nil
	}

	w, probe, err := c.pool.acquire(ctx)
	if err != nil {
		return shardOutcome{stream: lastStream, err: err}
	}
	if err := launch(w, probe, "dispatch"); err != nil {
		return shardOutcome{stream: lastStream, err: err}
	}
	straggler := time.NewTimer(c.cfg.StragglerAfter)
	defer straggler.Stop()

	var lastErr error
	for {
		select {
		case o := <-outcomes:
			running--
			if o.err == nil {
				path := filepath.Join(o.dir, shardBase(shard, j.of)+".json")
				if err := c.validateArtifact(path, j, shard); err == nil {
					c.scoreWorker(j, shard, o.w, true)
					return shardOutcome{path: path, stream: lastStream}
				} else {
					if errors.Is(err, harness.ErrArtifactChecksum) {
						c.Counters.ChecksumFailures.Add(1)
						j.publish(Event{Type: "checksum-failed", Shard: shard, Msg: err.Error()})
					}
					o.err = err
				}
			}
			c.scoreWorker(j, shard, o.w, false)
			lastErr = o.err
			if ctx.Err() != nil {
				return shardOutcome{stream: lastStream, err: ctx.Err()}
			}
			if attempts < c.cfg.MaxAttempts {
				c.Counters.ShardsRetried.Add(1)
				delay := c.retryDelay(j, shard, attempts)
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return shardOutcome{stream: lastStream, err: ctx.Err()}
				}
				w, probe, err := c.pool.acquire(ctx)
				if err != nil {
					return shardOutcome{stream: lastStream, err: err}
				}
				if err := launch(w, probe, "retry"); err != nil {
					return shardOutcome{stream: lastStream, err: err}
				}
			} else if running == 0 {
				return shardOutcome{stream: lastStream,
					err: fmt.Errorf("all %d attempts failed, last: %w", attempts, lastErr)}
			}
		case <-straggler.C:
			// The attempt is slow, not dead. If a healthy worker is idle
			// and the attempt budget allows, race a backup against it.
			if attempts < c.cfg.MaxAttempts {
				if w, ok := c.pool.tryAcquire(); ok {
					c.Counters.Stragglers.Add(1)
					if err := launch(w, false, "straggler"); err != nil {
						return shardOutcome{stream: lastStream, err: err}
					}
				}
			}
			straggler.Reset(c.cfg.StragglerAfter)
		case <-ctx.Done():
			return shardOutcome{stream: lastStream, err: ctx.Err()}
		}
	}
}

// recoverShard scans a shard's attempt dirs — left on disk by a
// previous coordinator process whose job failed or died before the
// merge — for an artifact that already validates (latest attempt
// first). Stale dirs from an unrelated plan never validate: the
// fingerprint check rejects them.
func (c *Coordinator) recoverShard(j *Job, jobDir string, shard int) (string, bool) {
	shardDir := filepath.Join(jobDir, fmt.Sprintf("shard_%d", shard))
	ents, err := os.ReadDir(shardDir)
	if err != nil {
		return "", false
	}
	var ks []int
	for _, e := range ents {
		if k, ok := strings.CutPrefix(e.Name(), "attempt_"); ok && e.IsDir() {
			if n, err := strconv.Atoi(k); err == nil {
				ks = append(ks, n)
			}
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ks)))
	for _, k := range ks {
		path := filepath.Join(shardDir, fmt.Sprintf("attempt_%d", k), shardBase(shard, j.of)+".json")
		if err := c.validateArtifact(path, j, shard); err == nil {
			return path, true
		}
	}
	return "", false
}

// scoreWorker feeds an attempt verdict to the quarantine circuit
// breaker and publishes the transition, if any.
func (c *Coordinator) scoreWorker(j *Job, shard int, w Worker, ok bool) {
	switch c.pool.report(w, ok) {
	case healthBenched:
		c.Counters.WorkersQuarantined.Add(1)
		j.publish(Event{Type: "quarantine", Shard: shard, Msg: w.Name()})
		c.cfg.Logf("worker %s quarantined after %d consecutive failures", w.Name(), c.cfg.QuarantineAfter)
	case healthRestored:
		c.Counters.WorkersRestored.Add(1)
		j.publish(Event{Type: "worker-restored", Shard: shard, Msg: w.Name()})
		c.cfg.Logf("worker %s restored by successful probe", w.Name())
	}
}

// validateArtifact checks a completed attempt's artifact before
// accepting it: right format, right shard coordinates, and the grid
// present with the coordinator-side plan fingerprint — the idempotency
// guard that makes duplicate or stale completions harmless.
func (c *Coordinator) validateArtifact(path string, j *Job, shard int) error {
	a, err := harness.ReadShardArtifactFile(path)
	if err != nil {
		return err
	}
	if a.Shard != shard || a.Of != j.of {
		return fmt.Errorf("artifact claims shard %d/%d, want %d/%d", a.Shard, a.Of, shard, j.of)
	}
	g, ok := a.Grid(j.Grid.Name)
	if !ok {
		return fmt.Errorf("artifact has no grid %q", j.Grid.Name)
	}
	if g.Fingerprint != j.fingerprint {
		return fmt.Errorf("artifact fingerprint %s, want %s", g.Fingerprint, j.fingerprint)
	}
	return nil
}

// pollCells streams cell-level progress: every PollInterval it unions
// the completed plan indices across the job's attempt streams and, on
// change, publishes a "cells" event carrying the same ProgressEvent
// the CLI printer renders — ETA seeded from the persisted prior.
func (c *Coordinator) pollCells(ctx context.Context, j *Job, done chan<- struct{}) {
	defer close(done)
	per, cells := c.etaPrior()
	eta := harness.NewETA().Seed(per, cells)
	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	last := -1
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		j.mu.Lock()
		streams := append([]string(nil), j.streams...)
		j.mu.Unlock()
		seen := map[int]bool{}
		for _, path := range streams {
			grids, err := harness.ReadCellStream(path)
			if err != nil {
				continue
			}
			if g, ok := grids[j.Grid.Name]; ok {
				for _, sc := range g.Cells {
					seen[sc.Index] = true
				}
			}
		}
		n := len(seen)
		if n == last {
			continue
		}
		last = n
		j.mu.Lock()
		j.cellsDone = n
		j.mu.Unlock()
		elapsed, remaining := eta.Observe(n, j.cellsTotal)
		j.publish(Event{Type: "cells", ProgressEvent: harness.ProgressEvent{
			Done:      n,
			Total:     j.cellsTotal,
			Label:     j.Grid.Name,
			Elapsed:   elapsed,
			Remaining: remaining,
		}})
	}
}

// ---- ETA priors ----

type etaPrior struct {
	PerCellNS int64 `json:"per_cell_ns"`
	Cells     int   `json:"cells"`
}

func (c *Coordinator) etaPath() string { return filepath.Join(c.cfg.DataDir, "eta.json") }

func (c *Coordinator) etaPrior() (time.Duration, int) {
	c.etaMu.Lock()
	defer c.etaMu.Unlock()
	return c.etaPer, c.etaCells
}

func (c *Coordinator) loadETA() {
	data, err := os.ReadFile(c.etaPath())
	if err != nil {
		return
	}
	var p etaPrior
	if json.Unmarshal(data, &p) == nil && p.PerCellNS > 0 && p.Cells > 0 {
		c.etaMu.Lock()
		c.etaPer, c.etaCells = time.Duration(p.PerCellNS), p.Cells
		c.etaMu.Unlock()
	}
}

// updateETA folds a finished job's persisted per-cell timings into the
// prior the next job's progress stream is seeded with.
func (c *Coordinator) updateETA(a *harness.ShardArtifact) {
	per, cells := a.MeanCellWall()
	if per <= 0 || cells == 0 {
		return
	}
	c.etaMu.Lock()
	c.etaPer, c.etaCells = per, cells
	c.etaMu.Unlock()
	data, err := json.Marshal(etaPrior{PerCellNS: per.Nanoseconds(), Cells: cells})
	if err == nil {
		_ = os.WriteFile(c.etaPath(), data, 0o644)
	}
}

// Artifact returns a done (or degraded) job's merged results artifact
// (from memory, falling back to the cache).
func (j *Job) Artifact(c *Coordinator) (*harness.ShardArtifact, error) {
	j.mu.Lock()
	art, state := j.artifact, j.state
	j.mu.Unlock()
	if state != StateDone && state != StateDegraded {
		return nil, fmt.Errorf("service: job %s is %s, not done", j.ID, state)
	}
	if art != nil {
		return art, nil
	}
	if art, ok := c.cache.Get(j.Key); ok {
		return art, nil
	}
	return nil, fmt.Errorf("service: job %s: result evicted from cache; resubmit", j.ID)
}

// RenderReport encodes a done job's report in the named format —
// through MergeShards and the grid's encoder (Assemble or
// AssembleTuning underneath), the identical aggregation a direct run
// uses, so the bytes match a local run exactly. An empty title defaults
// to the grid name.
func (j *Job) RenderReport(c *Coordinator, w io.Writer, format, title string) error {
	art, err := j.Artifact(c)
	if err != nil {
		return err
	}
	if title == "" {
		title = j.Req.Grid
	}
	enc, err := j.Grid.Encoder(format, title)
	if err != nil {
		return err
	}
	results, err := harness.MergeShards(j.Grid.Spec, j.Grid.Name, []*harness.ShardArtifact{art})
	if err != nil {
		return err
	}
	return enc(w, results)
}
