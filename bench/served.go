package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dsmphase/internal/harness"
	"dsmphase/internal/service"
	"dsmphase/internal/workloads"
)

// The served workload: one client drives an in-process coordinator
// through its HTTP API in a closed loop, one job at a time. Each job is
// figure4 over lu at test inputs, split in two shards that one local
// worker process runs one after the other. Job k of a run seeded n uses
// workload seed n+k+1, so every job of a run is a cache miss.

const servedGrid = "figure4"

// served is one running coordinator behind a loopback listener.
type served struct {
	apps    []string
	dir     string
	coord   *service.Coordinator
	srv     *http.Server
	stopped chan struct{} // closed when srv.Serve returns
	base    string
	hc      *http.Client
	client  *service.Client
	// l and wait route the worker spans of a traced coordinator: each
	// worker attempt becomes a child of the current job's wait span.
	l    *ledger
	wait atomic.Int64
}

// startServed sets up a coordinator (one local worker, two shards per
// job, serial workers) and its listener. A non-nil ledger times every
// worker attempt through the Config.WrapWorker seam.
func startServed(cfg runConfig, l *ledger) (*served, error) {
	dir, err := os.MkdirTemp("", "bench-served-")
	if err != nil {
		return nil, err
	}
	s := &served{apps: []string{"lu"}, dir: dir, l: l, stopped: make(chan struct{})}
	if cfg.apps != nil {
		s.apps = cfg.apps
	}
	scfg := service.Config{
		DataDir:        dir,
		ExperimentsBin: cfg.workerBin,
		Workers:        []string{"local"},
		DefaultShards:  2,
		WorkerParallel: 1,
	}
	if l != nil {
		scfg.WrapWorker = func(w service.Worker) service.Worker { return timedWorker{w, s} }
	}
	if s.coord, err = service.New(scfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.coord.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv = &http.Server{Handler: s.coord.Handler()}
	go func() {
		defer close(s.stopped)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	s.base = "http://" + ln.Addr().String()
	// One connection: the job's event stream is read to its end before
	// the next request goes out, so the loop never opens a second one.
	s.hc = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1}}
	s.client = &service.Client{BaseURL: s.base, HTTP: s.hc, Retries: -1}
	return s, nil
}

func (s *served) close() {
	s.srv.Close()
	<-s.stopped
	s.coord.Close()
	s.hc.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// timedWorker times each worker attempt as a span.
type timedWorker struct {
	service.Worker
	s *served
}

func (w timedWorker) Run(ctx context.Context, bin string, args []string) error {
	id := w.s.l.begin(int(w.s.wait.Load()), "service.worker_exec", -1, w.Name())
	defer w.s.l.end(id)
	return w.Worker.Run(ctx, bin, args)
}

func (s *served) request(seed uint64) service.JobRequest {
	return service.JobRequest{Grid: servedGrid, Size: "test", Apps: s.apps, Seed: seed}
}

// jobOut is one finished job.
type jobOut struct {
	seed  uint64
	wall  time.Duration // POST until the last format is fetched
	root  int
	bytes map[string][]byte
	// Server-side timestamps and merged results, read in-process after
	// the job.
	status service.JobStatus
	art    *harness.ShardArtifact
	// Coordinator attempt and retry counts and this process's allocation
	// and GC counts over the job.
	attempts, retries int64
	alloc, gcs        uint64
}

// job submits one job, waits for its "done" event on the job's event
// stream (polling would quantize latency), and fetches every report
// format.
func (s *served) job(l *ledger, seed uint64) (jobOut, error) {
	out := jobOut{seed: seed, bytes: map[string][]byte{}}
	out.root = l.begin(0, "job", -1, "")
	start := time.Now()
	id := l.begin(out.root, "service.submit", -1, "")
	st, err := s.client.Submit(s.request(seed))
	l.end(id)
	if err != nil {
		return out, err
	}
	id = l.begin(out.root, "service.wait", -1, st.ID)
	s.wait.Store(int64(id))
	err = s.awaitDone(st.ID)
	l.end(id)
	if err != nil {
		return out, fmt.Errorf("job %s (seed %d): %w", st.ID, seed, err)
	}
	id = l.begin(out.root, "service.render", -1, st.ID)
	for _, format := range harness.EncoderNames() {
		b, err := s.client.Report(st.ID, format, "")
		if err != nil {
			l.end(id)
			return out, err
		}
		out.bytes[servedGrid+"/"+format] = b
	}
	l.end(id)
	out.wall = time.Since(start)
	l.end(out.root)

	j, ok := s.coord.Job(st.ID)
	if !ok {
		return out, fmt.Errorf("job %s vanished", st.ID)
	}
	out.status = j.Status()
	out.art, err = j.Artifact(s.coord)
	return out, err
}

// awaitDone reads the job's server-sent events until a terminal one.
func (s *served) awaitDone(id string) error {
	resp, err := s.hc.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch ev.Type {
		case "done":
			// Drain the stream's end so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case "failed", "degraded":
			return fmt.Errorf("job ended %s: %s", ev.Type, ev.Msg)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before the job did")
}

// cacheHit resubmits a finished job's request, which the coordinator
// answers from its result cache, and fetches every format again.
func (s *served) cacheHit(seed uint64) (time.Duration, map[string][]byte, error) {
	start := time.Now()
	st, err := s.client.Submit(s.request(seed))
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if !st.Cached || st.State != service.StateDone {
		return 0, nil, fmt.Errorf("resubmitted seed %d: state %s, cached %v", seed, st.State, st.Cached)
	}
	out := map[string][]byte{}
	for _, format := range harness.EncoderNames() {
		b, err := s.client.Report(st.ID, format, "")
		if err != nil {
			return 0, nil, err
		}
		out[servedGrid+"/"+format] = b
	}
	return lat, out, nil
}

// direct renders a job's grid in-process through Spec.Run, the bytes a
// served report must equal.
func (s *served) direct(seed uint64) (map[string][]byte, error) {
	g, err := harness.BuildGrid(servedGrid, harness.GridParams{Size: workloads.SizeTest, Apps: s.apps, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := passOut{bytes: map[string][]byte{}, t: newTally()}
	err = encode(nil, 0, g, report{plain: g.Spec.Run(harness.Options{Parallel: 1})}, out)
	return out.bytes, err
}

// artifactTally counts the simulations behind a merged job artifact.
func artifactTally(art *harness.ShardArtifact) (*tally, error) {
	t := newTally()
	for _, g := range art.Grids {
		for _, sc := range g.Results {
			r, err := sc.CellResult()
			if err != nil {
				return nil, err
			}
			t.cell(g.Name, r)
		}
	}
	return t, nil
}
