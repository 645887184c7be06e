// Command dsmphased is the experiment coordinator service: a
// long-running HTTP/JSON server that takes a grid submission from Spec
// parameters to a merged, cache-backed report.
//
// Jobs are POSTed as a named grid plus Spec parameters; the
// coordinator fans the grid's shards out over a worker pool (each
// worker execs cmd/experiments -shard with the -shard-dir handshake),
// resumes crashed attempts from their per-cell JSONL streams, retries
// failed attempts with backoff, re-dispatches stragglers, merges the
// completed shard set through the same MergeShards/Assemble path the
// CLI uses — so a served report is byte-identical to a direct run —
// and answers repeat submissions from a fingerprint-keyed disk cache.
// See docs/SERVICE.md for the API and the failure model.
//
//	dsmphased -listen 127.0.0.1:8356 -data /var/lib/dsmphased
//	curl -d '{"grid":"figure2","size":"test"}' http://127.0.0.1:8356/v1/jobs
//	curl 'http://127.0.0.1:8356/v1/jobs/job-1/report?format=markdown'
//
// On SIGTERM or SIGINT the server drains: new submissions are refused
// (503), in-flight work is cancelled — shard streams stay on disk, so
// a restarted coordinator resumes them — and the HTTP listener shuts
// down gracefully. A second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dsmphase/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dsmphased:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dsmphased", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		listen    = fs.String("listen", "127.0.0.1:8356", "HTTP listen address (port 0 picks a free port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		dataDir   = fs.String("data", "dsmphased-data", "state directory: result cache, job work dirs, ETA priors")
		expBin    = fs.String("experiments", "", "path of the experiments worker binary (default: next to this binary, else $PATH)")
		workers   = fs.String("workers", "local,local", `comma-separated worker pool, one "local" per worker`)
		shards    = fs.Int("shards", 0, "default shard fan-out per job (0 = pool size)")
		parallel  = fs.Int("parallel", 0, "-parallel passed to each worker process (0 = worker default)")
		straggler = fs.Duration("straggler-after", 10*time.Minute, "race a backup attempt on an idle worker once this long has passed since a shard's latest launch")
		attempts  = fs.Int("max-attempts", 0, "dispatch attempts per shard, stragglers included (0 = 3)")
		retryBase = fs.Duration("retry-base", 0, "backoff before a shard's first retry, doubling with jitter (0 = 250ms)")
		attemptTO = fs.Duration("attempt-timeout", 0, "cancel and fail a dispatch attempt running longer than this (0 = no timeout)")
		cacheB    = fs.Int64("cache-bytes", service.DefaultCacheBytes, "result cache size bound in bytes")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	bin, err := findExperiments(*expBin)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dsmphased: "+format+"\n", args...)
	}
	coord, err := service.New(service.Config{
		DataDir:        *dataDir,
		ExperimentsBin: bin,
		Workers:        splitList(*workers),
		DefaultShards:  *shards,
		CacheBytes:     *cacheB,
		StragglerAfter: *straggler,
		MaxAttempts:    *attempts,
		RetryBase:      *retryBase,
		AttemptTimeout: *attemptTO,
		WorkerParallel: *parallel,
		Logf:           logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dsmphased: listening on http://%s (worker binary %s)\n", ln.Addr(), bin)

	srv := &http.Server{Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Graceful shutdown: refuse new jobs, cancel in-flight workers
		// (their shard streams stay on disk for a restart to resume),
		// then drain the HTTP side. A second signal aborts immediately.
		fmt.Fprintf(os.Stderr, "dsmphased: %v, draining (again to force exit)\n", s)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "dsmphased: second signal, exiting now")
			os.Exit(1)
		}()
		coord.BeginDrain()
		coord.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	case err := <-errCh:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}

// findExperiments locates the worker binary: the -experiments flag, a
// sibling of this binary, or $PATH.
func findExperiments(flagVal string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		sibling := filepath.Join(filepath.Dir(self), "experiments")
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	if p, err := exec.LookPath("experiments"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("experiments worker binary not found (sibling or $PATH); pass -experiments")
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
