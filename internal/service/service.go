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
	// StragglerAfter paces straggler backups: a shard still running
	// StragglerAfter after its latest launch gets a backup attempt on an
	// idle worker, within MaxAttempts; with none idle then, it
	// is due again one StragglerAfter later. First valid completion
	// wins; the other attempts are cancelled. 0 = 10 minutes.
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
	// WrapWorker, when non-nil, wraps every parsed worker: the seam
	// that tests force faults through and the repository benchmark
	// times worker attempts through.
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
	// Apps lists workloads or panel aliases; empty = the paper panel.
	// Duplicates are dropped, and at most 64 distinct names are accepted.
	Apps []string `json:"apps,omitempty"`
	// Protocols lists coherence backends; empty = directory only.
	Protocols []string `json:"protocols,omitempty"`
	// Interval is the total sampling interval (0 = the 300k default).
	Interval uint64 `json:"interval,omitempty"`
	// Seed is the workload base seed (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Replicates is seeds per configuration (0 = 1, at most 100).
	Replicates int `json:"replicates,omitempty"`
	// Shards overrides the job's shard fan-out (0 = server default, at
	// most the plan's cell count).
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

// Bounds on what a job request may ask for, checked before any plan is
// built: Submit builds every cell of a plan, so an unbounded request
// sizes the coordinator's memory.
const (
	// maxRequestBytes caps a POST /v1/jobs body, shipped workload
	// sources (inlined traces included). It holds the request
	// `experiments -workload-trace -submit` builds for the 8-node
	// small-size lu capture (8.02M records, 445,452,064 bytes), whose
	// registration peaks at 3.0 GB of coordinator RSS, about 6.8 bytes
	// per request byte.
	maxRequestBytes = 512 << 20
	// maxReplicates caps JobRequest.Replicates; -preset paper uses 5.
	maxReplicates = 100
	// maxApps caps JobRequest.Apps after duplicates are dropped. Unknown
	// names are kept, as in the CLI, so each name adds cells to the
	// plan; the registry has ten built-ins and three panel aliases, and
	// the rest of the cap leaves room for shipped workloads.
	maxApps = 64
)

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
	// The grid resolves apps without duplicates anyway, so dropping them
	// changes no plan; it keeps the maxApps count honest. Collection
	// stops one name past the cap, which compile then rejects.
	seen := map[string]bool{}
	var apps []string
	for _, a := range r.Apps {
		if !seen[a] {
			seen[a] = true
			if apps = append(apps, a); len(apps) > maxApps {
				break
			}
		}
	}
	r.Apps = apps
}

// compile builds the request's named grid (and therefore its plan and
// fingerprint) exactly as cmd/experiments would under the same flags.
// Shipped workload definitions register first: the grid's fingerprint
// folds in their definition hashes, and registration is idempotent, so
// resubmitting the same spec is a cache hit while a changed definition
// under the same name is rejected here — at submission, not mid-run.
// A request over maxReplicates or maxApps, or asking for more shards
// than its plan has cells, is rejected before the plan is built.
func (r *JobRequest) compile() (harness.NamedGrid, error) {
	if r.Replicates > maxReplicates {
		return harness.NamedGrid{}, fmt.Errorf("replicates %d exceeds the limit of %d", r.Replicates, maxReplicates)
	}
	if len(r.Apps) > maxApps {
		return harness.NamedGrid{}, fmt.Errorf("apps name more than the limit of %d distinct workloads", maxApps)
	}
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
	g, err := harness.BuildGrid(r.Grid, harness.GridParams{
		Size:       size,
		Apps:       r.Apps,
		Protocols:  kinds,
		Interval:   r.Interval,
		Seed:       r.Seed,
		Replicates: r.Replicates,
	})
	if err != nil {
		return harness.NamedGrid{}, err
	}
	if cells := len(g.Spec.Configurations()) * g.Spec.Replicates(); r.Shards > cells {
		return harness.NamedGrid{}, fmt.Errorf("shards %d exceeds the plan's %d cells", r.Shards, cells)
	}
	return g, nil
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

// The errors the HTTP surface maps to status codes (http.go).
var (
	// errNotDone: the job has no result yet (409).
	errNotDone = errors.New("service: job not done")
	// errEvicted: the result cache no longer holds a done job's result
	// (410).
	errEvicted = errors.New("service: result evicted from the cache")
	// errUnknownFormat: the report format names no encoder (400).
	errUnknownFormat = errors.New("service: unknown report format")
	// errQueueFull and errDraining refuse a submission (503).
	errQueueFull = errors.New("service: job queue full")
	errDraining  = errors.New("service: coordinator is draining, not accepting jobs")
)

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

// Event is one server-sent progress notification of a job. Cell-level
// events embed the same harness.ProgressEvent the CLI's stderr printer
// renders, so both surfaces consume one structured source.
type Event struct {
	// Type is the event kind: queued, start, dispatch, retry,
	// straggler, recovered, checksum-failed, shard-done,
	// shard-degraded, cells, merged, cache-evict, cache-hit, done,
	// degraded, failed.
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
	injured    []int // degraded jobs: error-carrying plan indices
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
	JobsSubmitted    atomic.Int64
	JobsDone         atomic.Int64
	JobsDegraded     atomic.Int64
	JobsFailed       atomic.Int64
	ShardsDispatched atomic.Int64
	ShardsRetried    atomic.Int64
	ShardsRecovered  atomic.Int64
	Stragglers       atomic.Int64
	CacheHits        atomic.Int64
	WorkersSpawned   atomic.Int64
	ChecksumFailures atomic.Int64
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
		"checksum_failures":       c.ChecksumFailures.Load(),
	}
}

// Coordinator is the experiment service: a job queue, a worker pool, a
// result cache, and the dispatch/merge loop connecting them.
type Coordinator struct {
	cfg      Config
	cache    *Cache
	workers  []Worker
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

	// Once New returns, only the dispatcher goroutine touches these.
	etaPer   time.Duration // the persisted per-cell timing prior
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
	for i, spec := range cfg.Workers {
		w, err := ParseWorker(spec, i)
		if err != nil {
			return nil, err
		}
		if cfg.WrapWorker != nil {
			w = cfg.WrapWorker(w)
		}
		c.workers = append(c.workers, w)
	}
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
// the queue or the pool. A job is registered (given its ID, listed and
// counted) only once it is queued or served from the cache: a
// submission refused for a full queue leaves no job behind.
func (c *Coordinator) Submit(req JobRequest) (JobStatus, error) {
	if c.draining.Load() {
		return JobStatus{}, errDraining
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
	_, hit, dropped := c.cache.Get(j.Key)
	if hit {
		j.state = StateDone
		j.cached = true
		j.started, j.finished = j.created, time.Now()
		j.cellsDone = j.cellsTotal
		j.shardsDone = of
	}

	// Under c.mu the job takes the next ID and publishes the events that
	// precede the dispatcher's; the ID is spent, and the job listed,
	// only once it is queued or served from the cache.
	c.mu.Lock()
	j.ID = fmt.Sprintf("job-%d", c.nextID+1)
	if dropped {
		// The cached entry existed but failed its content checksum:
		// evicted, and this job recomputes it.
		j.publish(Event{Type: "cache-evict", Msg: j.Key})
	}
	if hit {
		j.publish(Event{Type: "cache-hit", Msg: j.Key})
		j.publish(Event{Type: "done"})
	} else {
		j.publish(Event{Type: "queued"})
		select {
		case c.queue <- j:
		default:
			c.mu.Unlock()
			return JobStatus{}, errQueueFull
		}
	}
	c.nextID++
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.mu.Unlock()
	c.Counters.JobsSubmitted.Add(1)

	if dropped {
		c.cfg.Logf("job %s: corrupt cache entry %s evicted, recomputing", j.ID, j.Key)
	}
	if hit {
		c.Counters.CacheHits.Add(1)
		c.Counters.JobsDone.Add(1)
		c.cfg.Logf("job %s: %s served from cache (%s)", j.ID, req.Grid, j.Key)
	} else {
		c.cfg.Logf("job %s: queued %s (%d cells, %d shards, fingerprint %s)",
			j.ID, req.Grid, j.cellsTotal, of, j.fingerprint)
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

// runJob drives one job end to end: dispatch its shards over the pool,
// poll the shard streams for cell-level progress, merge, cache, report.
func (c *Coordinator) runJob(j *Job) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publish(Event{Type: "start"})

	jobDir := c.jobDir(j)
	outs := c.runShards(j, jobDir)
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
	// artifact: the byte source every report encoder renders from. It
	// lives on disk only, read back per request: a done job's in its
	// cache entry, a degraded job's in its kept job dir.
	mg, err := harness.NewShardGrid(j.Grid.Name, j.Grid.Spec, results, j.Grid.Tuning, false)
	if err != nil {
		c.failJob(j, err)
		return
	}
	merged := &harness.ShardArtifact{Format: harness.ShardFormat, Shard: 0, Of: 1, Grids: []harness.ShardGrid{mg}}
	if exhausted == 0 {
		err = c.cache.Put(j.Key, merged)
		c.updateETA(merged)
	} else {
		// Degraded results never enter the cache (a later identical
		// submission deserves a fresh, possibly whole, run) and never
		// feed the ETA prior (injured cells have zero wall time).
		err = harness.WriteShardArtifactFile(c.degradedResult(j), merged)
	}
	if err != nil {
		c.failJob(j, fmt.Errorf("storing the merged result: %w", err))
		return
	}
	j.publish(Event{Type: "merged"})

	j.mu.Lock()
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
	// jobs; a finished job's truth is its cache entry.
	_ = os.RemoveAll(jobDir)
}

// jobDir holds a job's per-attempt work dirs and, once the job is
// degraded, its merged result.
func (c *Coordinator) jobDir(j *Job) string { return filepath.Join(c.cfg.DataDir, "jobs", j.ID) }

// degradedResult is the file that holds a degraded job's merged result.
func (c *Coordinator) degradedResult(j *Job) string {
	return filepath.Join(c.jobDir(j), "merged.json")
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

// attemptDone is one attempt's end: err is nil only for a validated
// artifact.
type attemptDone struct {
	id  int
	err error
}

// runShards carries out one job's shardMachine decisions until every
// shard has a validated artifact or its final error. Each shard dir
// left by a previous coordinator process is first scanned for an
// artifact that already validates — the crash-during-merge recovery
// path. Each attempt runs in its own dir, on its own goroutine, and
// reports to this loop, the only caller of the machine; the loop also
// polls the attempts' cell streams for progress every PollInterval. It
// returns once every attempt it launched has finished, so no attempt
// outlives its job.
func (c *Coordinator) runShards(j *Job, jobDir string) []shardOutcome {
	outs := make([]shardOutcome, j.of)
	shardDone := func(shard int) {
		j.mu.Lock()
		j.shardsDone++
		j.mu.Unlock()
		j.publish(Event{Type: "shard-done", Shard: shard})
	}
	recovered := make([]bool, j.of)
	for i := range outs {
		if path, ok := c.recoverShard(j, jobDir, i); ok {
			c.Counters.ShardsRecovered.Add(1)
			j.publish(Event{Type: "recovered", Shard: i, Msg: path})
			c.cfg.Logf("job %s: shard %d recovered from previous run's artifact", j.ID, i)
			outs[i].path, recovered[i] = path, true
			shardDone(i)
		}
	}

	m := newShardMachine(c.cfg, j.fingerprint, j.of, len(c.workers))
	var streams []string             // by attempt handle
	var cancels []context.CancelFunc // by attempt handle
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	done := make(chan attemptDone)
	apply := func(ds []decision) {
		for _, d := range ds {
			switch d.op {
			case "dispatch", "retry", "straggler":
				dir := filepath.Join(jobDir, fmt.Sprintf("shard_%d", d.shard), fmt.Sprintf("attempt_%d", d.attempt))
				stream := filepath.Join(dir, shardBase(d.shard, j.of)+".cells.jsonl")
				ctx, cancel := context.WithCancel(c.ctx)
				c.launch(ctx, j, d, dir, outs[d.shard].stream, stream, done)
				streams, cancels = append(streams, stream), append(cancels, cancel)
				outs[d.shard].stream = stream
			case "cancel":
				cancels[d.id]()
			case "accept":
				outs[d.shard].path = filepath.Join(filepath.Dir(streams[d.id]), shardBase(d.shard, j.of)+".json")
				shardDone(d.shard)
			case "exhaust":
				outs[d.shard].err = d.err
			}
		}
	}

	apply(m.start(time.Now(), recovered))
	eta := harness.NewETA().Seed(c.etaPer, c.etaCells)
	polled := -1 // the cell count last published
	poll := time.Now().Add(c.cfg.PollInterval)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for !m.done() {
		wake := m.next()
		if wake.IsZero() || poll.Before(wake) {
			wake = poll
		}
		timer.Reset(time.Until(wake))
		var fin *attemptDone
		select {
		case r := <-done:
			fin = &r
		case now := <-timer.C:
			if !now.Before(poll) {
				polled = c.pollCells(j, streams, eta, polled)
				poll = now.Add(c.cfg.PollInterval)
			}
		case <-c.ctx.Done():
		}
		if c.ctx.Err() != nil {
			// Coordinator shutdown, which cancelled every attempt: wait
			// them out, launching nothing more.
			m.stop()
		}
		if fin != nil {
			apply(m.finished(time.Now(), fin.id, fin.err))
		} else {
			apply(m.tick(time.Now()))
		}
	}
	return outs
}

// launch carries out a launch decision on a goroutine: it makes the
// attempt dir, writes the shipped workload specs into it, seeds its
// cell stream with a copy of the shard's previous one (prev; the new
// worker resumes from it), runs the worker, validates the artifact and
// reports to done. A dir it cannot prepare fails the attempt.
func (c *Coordinator) launch(ctx context.Context, j *Job, d decision, dir, prev, stream string, done chan<- attemptDone) {
	w := c.workers[d.worker]
	c.Counters.ShardsDispatched.Add(1)
	c.Counters.WorkersSpawned.Add(1)
	switch d.op {
	case "retry":
		c.Counters.ShardsRetried.Add(1)
	case "straggler":
		c.Counters.Stragglers.Add(1)
	}
	j.publish(Event{Type: d.op, Shard: d.shard, Msg: w.Name()})
	c.cfg.Logf("job %s: shard %d attempt %d on %s", j.ID, d.shard, d.attempt, w.Name())
	go func() {
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = writeWorkloadSpecs(dir, j.Req.Workloads)
		}
		if err != nil {
			done <- attemptDone{d.id, err}
			return
		}
		if prev != "" {
			// Readers tolerate a torn tail, so copying under a live
			// writer is safe.
			if data, rerr := os.ReadFile(prev); rerr == nil {
				_ = os.WriteFile(stream, data, 0o644)
			}
		}
		err = w.Run(ctx, c.cfg.ExperimentsBin, c.cfg.workerArgs(j.Req, d.shard, j.of, dir))
		if err == nil {
			err = c.validateArtifact(filepath.Join(dir, shardBase(d.shard, j.of)+".json"), j, d.shard)
			if errors.Is(err, harness.ErrArtifactChecksum) {
				c.Counters.ChecksumFailures.Add(1)
				j.publish(Event{Type: "checksum-failed", Shard: d.shard, Msg: err.Error()})
			}
		}
		done <- attemptDone{d.id, err}
	}()
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

// pollCells unions the completed plan indices across the job's
// attempt streams and, when the count differs from last, publishes a
// "cells" event carrying the same ProgressEvent the CLI printer
// renders. It returns the count.
func (c *Coordinator) pollCells(j *Job, streams []string, eta *harness.ETA, last int) int {
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
		return n
	}
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
	return n
}

// ---- ETA priors ----

type etaPrior struct {
	PerCellNS int64 `json:"per_cell_ns"`
	Cells     int   `json:"cells"`
}

func (c *Coordinator) etaPath() string { return filepath.Join(c.cfg.DataDir, "eta.json") }

func (c *Coordinator) loadETA() {
	data, err := os.ReadFile(c.etaPath())
	if err != nil {
		return
	}
	var p etaPrior
	if json.Unmarshal(data, &p) == nil && p.PerCellNS > 0 && p.Cells > 0 {
		c.etaPer, c.etaCells = time.Duration(p.PerCellNS), p.Cells
	}
}

// updateETA folds a finished job's persisted per-cell timings into the
// prior the next job's progress stream is seeded with.
func (c *Coordinator) updateETA(a *harness.ShardArtifact) {
	per, cells := a.MeanCellWall()
	if per <= 0 || cells == 0 {
		return
	}
	c.etaPer, c.etaCells = per, cells
	data, err := json.Marshal(etaPrior{PerCellNS: per.Nanoseconds(), Cells: cells})
	if err == nil {
		_ = os.WriteFile(c.etaPath(), data, 0o644)
	}
}

// Artifact reads a done (or degraded) job's merged results artifact
// back from disk: a done job's from its entry in c's result cache, a
// degraded job's from its kept job dir. Once the cache has evicted a
// done job's entry, it fails with errEvicted.
func (j *Job) Artifact(c *Coordinator) (*harness.ShardArtifact, error) {
	switch st := j.Status().State; st {
	case StateDone:
		a, ok, _ := c.cache.Get(j.Key)
		if !ok {
			return nil, fmt.Errorf("%w: job %s (key %s); resubmit to recompute it", errEvicted, j.ID, j.Key)
		}
		return a, nil
	case StateDegraded:
		return harness.ReadShardArtifactFile(c.degradedResult(j))
	default:
		return nil, fmt.Errorf("%w: job %s is %s", errNotDone, j.ID, st)
	}
}

// RenderReport encodes a done job's report in the named format —
// through MergeShards and the grid's encoder (Assemble or
// AssembleTuning underneath), the identical aggregation a direct run
// uses, so the bytes match a local run exactly. An empty title defaults
// to the grid name. The merged results are read back through Artifact.
func (j *Job) RenderReport(c *Coordinator, w io.Writer, format, title string) error {
	if title == "" {
		title = j.Req.Grid
	}
	enc, err := j.Grid.Encoder(format, title)
	if err != nil {
		return fmt.Errorf("%w: %v", errUnknownFormat, err)
	}
	art, err := j.Artifact(c)
	if err != nil {
		return err
	}
	results, err := harness.MergeShards(j.Grid.Spec, j.Grid.Name, []*harness.ShardArtifact{art})
	if err != nil {
		return err
	}
	return enc(w, results)
}
