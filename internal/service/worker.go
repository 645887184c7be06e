// Package service is the experiment coordinator behind cmd/dsmphased:
// a long-running HTTP/JSON server that accepts job submissions (a named
// experiment grid plus Spec parameters), fans the grid's shards out
// over a pool of interchangeable local workers that exec
// cmd/experiments -shard with a -shard-dir handshake, retries failed
// and timed-out attempts with backoff, survives worker death (per-cell
// JSONL streams let a re-dispatched shard resume from its last
// completed cell), detects stragglers and re-dispatches them safely
// (shard artifacts are fingerprint-validated and idempotent, so a
// duplicate completion is a no-op), auto-merges completed shard sets
// through the same MergeShards/Assemble path the CLI uses — so a
// served report is byte-identical to a direct Spec.Run — and answers
// repeat submissions from a Plan.Fingerprint-keyed disk cache without
// spawning a worker.
//
// See docs/SERVICE.md for the HTTP API and the artifact/resume schema.
package service

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
)

// Worker executes one shard attempt. Local workers exec the experiments
// binary as a child process; the interface is the seam the
// fault-injection plane (internal/faults) plugs into. The dispatcher
// keeps no per-worker health: local workers are interchangeable
// children of one host, so one worker's failures predict nothing about
// it. A cross-machine transport plugging in here would have to bring
// per-worker health back.
// Run must honor ctx cancellation — the dispatcher cancels losing
// straggler attempts — and must not return until the attempt's
// artifact (if any) is fully on disk.
type Worker interface {
	// Name labels the worker in logs and events.
	Name() string
	// Run executes the experiments binary with the given arguments and
	// blocks until it exits. A non-nil error marks the attempt failed;
	// whatever the attempt streamed to its shard dir is still usable for
	// resume.
	Run(ctx context.Context, bin string, args []string) error
}

// ParseWorker builds a Worker from a pool-configuration entry. The
// only spelling is "local" (exec the experiments binary on this host);
// id uniquifies the worker's display name within the pool.
func ParseWorker(spec string, id int) (Worker, error) {
	if spec != "local" && spec != "" {
		return nil, fmt.Errorf("service: worker %q: want \"local\"", spec)
	}
	return &localWorker{name: fmt.Sprintf("local-%d", id)}, nil
}

// localWorker execs the experiments binary as a child process.
type localWorker struct {
	name string
}

func (w *localWorker) Name() string { return w.name }

func (w *localWorker) Run(ctx context.Context, bin string, args []string) error {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		// Keep the tail of the child's stderr: it names the failing cell
		// or flag, which the bare exit status does not.
		msg := strings.TrimSpace(stderr.String())
		if n := len(msg); n > 512 {
			msg = "..." + msg[n-512:]
		}
		if msg != "" {
			return fmt.Errorf("%s: %w: %s", w.name, err, msg)
		}
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}
