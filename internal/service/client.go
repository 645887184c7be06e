package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"dsmphase/internal/harness"
)

// Client is the coordinator's HTTP client, shared by the
// `cmd/experiments -submit` mode and the service tests. Transient
// failures — connection errors and 5xx responses — are retried with
// capped exponential backoff, so a worker-side submission survives a
// coordinator restart or a drain window instead of dying on the first
// blip.
type Client struct {
	// BaseURL is the coordinator root, e.g. "http://127.0.0.1:8356".
	BaseURL string
	// HTTP is the transport; nil uses a client with a sane timeout for
	// the non-streaming calls.
	HTTP *http.Client
	// Retries bounds the attempts per call (0 = 4; negative = 1, no
	// retrying).
	Retries int
	// RetryBase is the first retry's backoff, doubling per attempt and
	// capped at 2s (0 = 100ms).
	RetryBase time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// do runs an HTTP call through the retry policy: connection errors and
// 5xx statuses are transient (the response body is drained and closed
// before the retry); everything else returns immediately. The request
// is rebuilt per attempt via the closure, so bodies replay.
func (c *Client) do(req func() (*http.Response, error)) (*http.Response, error) {
	attempts := c.Retries
	if attempts == 0 {
		attempts = 4
	}
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.RetryBase
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	const backoffCap = 2 * time.Second
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > backoffCap {
				backoff = backoffCap
			}
		}
		resp, err := req()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 == 5 {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			lastErr = fmt.Errorf("service: %s: %s", resp.Status, strings.TrimSpace(string(body)))
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("service: giving up after %d attempts: %w", attempts, lastErr)
}

// decode reads one response, surfacing the server's {"error": ...}
// body on non-2xx statuses.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("service: %s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("service: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(req JobRequest) (JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.do(func() (*http.Response, error) {
		return c.http().Post(c.url("/v1/jobs"), "application/json", bytes.NewReader(body))
	})
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	return st, decode(resp, &st)
}

// get runs a GET through the retry policy.
func (c *Client) get(path string) (*http.Response, error) {
	return c.do(func() (*http.Response, error) { return c.http().Get(c.url(path)) })
}

// Status fetches one job's status.
func (c *Client) Status(id string) (JobStatus, error) {
	resp, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	return st, decode(resp, &st)
}

// Wait polls until the job reaches a terminal state. A degraded job
// returns like a done one — the caller reads Status.Injured to decide
// what partial results are worth; a failed job is an error carrying
// the server-side failure text.
func (c *Client) Wait(id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone, StateDegraded:
			return st, nil
		case StateFailed:
			return st, fmt.Errorf("service: job %s failed: %s", id, st.Error)
		}
		time.Sleep(poll)
	}
}

// Artifact downloads a done job's merged results artifact.
func (c *Client) Artifact(id string) (*harness.ShardArtifact, error) {
	resp, err := c.get("/v1/jobs/" + id + "/artifact")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("service: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return harness.ReadShardArtifact(resp.Body)
}

// Report fetches a done job's report in the named encoder format.
func (c *Client) Report(id, format, title string) ([]byte, error) {
	q := url.Values{"format": {format}}
	if title != "" {
		q.Set("title", title)
	}
	resp, err := c.get("/v1/jobs/" + id + "/report?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("service: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Stats fetches the coordinator counters.
func (c *Client) Stats() (map[string]int64, error) {
	resp, err := c.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var stats map[string]int64
	return stats, decode(resp, &stats)
}
