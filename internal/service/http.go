package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"dsmphase/internal/harness"
)

// The HTTP surface. Everything is JSON except the report (the encoder
// family's own bytes) and the event stream (server-sent events).
//
//	POST /v1/jobs                     — submit a JobRequest, get a JobStatus
//	GET  /v1/jobs                     — list all jobs
//	GET  /v1/jobs/{id}                — one job's status
//	GET  /v1/jobs/{id}/report?format= — the merged report, any encoder
//	GET  /v1/jobs/{id}/artifact       — the merged dsmphase-shard/1 artifact
//	GET  /v1/jobs/{id}/events         — SSE progress (history, then live)
//	GET  /v1/stats                    — coordinator counters

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", c.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", c.handleArtifact)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/stats", c.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if r.ContentLength > maxRequestBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("job request of %d bytes exceeds the limit of %d", r.ContentLength, maxRequestBytes))
		return
	}
	if err := harness.DecodeOne(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job request: %w", err))
		return
	}
	st, err := c.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "queue full") || strings.Contains(err.Error(), "draining") {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.JobList())
}

// job resolves the {id} path segment, writing a 404 on a miss.
func (c *Coordinator) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := c.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	}
	return j, ok
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := c.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	contentTypes := map[string]string{
		"text":     "text/plain; charset=utf-8",
		"csv":      "text/csv; charset=utf-8",
		"json":     "application/json",
		"markdown": "text/markdown; charset=utf-8",
	}
	var buf strings.Builder
	if err := j.RenderReport(&buf, format, r.URL.Query().Get("title")); err != nil {
		status := http.StatusConflict // job not done yet
		if strings.Contains(err.Error(), "unknown") {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	ct := contentTypes[format]
	if ct == "" {
		ct = "text/plain; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	_, _ = fmt.Fprint(w, buf.String())
}

func (c *Coordinator) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	art, err := j.Artifact(c)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, art)
}

// handleEvents streams a job's progress as server-sent events: the
// full history first (a late subscriber sees the whole story), then
// live events until the job reaches a terminal state or the client
// disconnects. Each event is `data: <Event JSON>\n\n`.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := c.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, cancel := j.subscribe()
	defer cancel()
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return ev.Type != "done" && ev.Type != "failed" && ev.Type != "degraded"
	}
	for _, ev := range history {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.ctx.Done():
			return
		case ev := <-live:
			if !send(ev) {
				return
			}
		}
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := c.Counters.Snapshot()
	stats["cache_entries"] = int64(c.cache.Len())
	stats["cache_evictions"] = c.cache.Evictions()
	stats["cache_corrupt_dropped"] = c.cache.CorruptDropped()
	writeJSON(w, http.StatusOK, stats)
}
