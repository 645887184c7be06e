package faults

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dsmphase/internal/harness"
)

// Runner matches service.Worker structurally, so the injector slots
// behind the coordinator's Config.WrapWorker seam without this package
// importing internal/service (or vice versa).
type Runner interface {
	Name() string
	Run(ctx context.Context, bin string, args []string) error
}

// Injector wraps a Runner with a Plan: each shard attempt the
// coordinator dispatches through it draws a fault and suffers it. Runs
// whose argument vector carries no -shard/-shard-dir handshake pass
// through untouched.
type Injector struct {
	inner Runner
	plan  *Plan
	logf  func(format string, args ...any)
}

// Wrap builds an Injector. logf (optional) receives one line per
// injected fault.
func Wrap(inner Runner, plan *Plan, logf func(format string, args ...any)) *Injector {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Injector{inner: inner, plan: plan, logf: logf}
}

func (in *Injector) Name() string { return in.inner.Name() }

func (in *Injector) Run(ctx context.Context, bin string, args []string) error {
	shard, of, dir, ok := parseShardArgs(args)
	if !ok {
		return in.inner.Run(ctx, bin, args)
	}
	attempt := in.plan.Next(shard)
	kind := in.plan.Draw(shard, attempt)
	if kind != None {
		in.logf("faults: shard %d/%d attempt %d on %s: %s", shard, of, attempt, in.inner.Name(), kind)
	}
	artifact := filepath.Join(dir, fmt.Sprintf("shard_%d_of_%d.json", shard, of))
	stream := filepath.Join(dir, fmt.Sprintf("shard_%d_of_%d.cells.jsonl", shard, of))

	switch kind {
	case None:
		return in.inner.Run(ctx, bin, args)

	case TransientExec:
		return fmt.Errorf("faults: injected transient exec failure (shard %d attempt %d)", shard, attempt)

	case SlowStart:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(slowStartDelay):
		}
		return in.inner.Run(ctx, bin, args)

	case Hang:
		<-ctx.Done()
		return fmt.Errorf("faults: injected hang (shard %d attempt %d): %w", shard, attempt, ctx.Err())

	case CrashBeforeArtifact:
		if err := in.inner.Run(ctx, bin, args); err != nil {
			return err
		}
		_ = os.Remove(artifact)
		return fmt.Errorf("faults: injected crash before artifact write (shard %d attempt %d)", shard, attempt)

	case TornStream:
		if err := in.inner.Run(ctx, bin, args); err != nil {
			return err
		}
		_ = os.Remove(artifact)
		if err := tearStream(stream); err != nil {
			return fmt.Errorf("faults: tearing stream: %w", err)
		}
		return fmt.Errorf("faults: injected crash mid-stream (shard %d attempt %d)", shard, attempt)

	case CorruptArtifact:
		if err := in.inner.Run(ctx, bin, args); err != nil {
			return err
		}
		// Report success: the dispatcher must catch this via the
		// artifact's content checksum, nothing else.
		return CorruptArtifactValue(artifact)

	case TruncateArtifact:
		if err := in.inner.Run(ctx, bin, args); err != nil {
			return err
		}
		return truncateFile(artifact)

	case WrongFingerprint:
		if err := in.inner.Run(ctx, bin, args); err != nil {
			return err
		}
		return rewriteFingerprint(artifact)
	}
	return in.inner.Run(ctx, bin, args)
}

// parseShardArgs pulls the -shard i/n and -shard-dir values off a
// worker argument vector.
func parseShardArgs(args []string) (shard, of int, dir string, ok bool) {
	var shardSpec string
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "-shard":
			shardSpec = args[i+1]
		case "-shard-dir":
			dir = args[i+1]
		}
	}
	if shardSpec == "" || dir == "" {
		return 0, 0, "", false
	}
	s, n, err := harness.ParseShard(shardSpec)
	if err != nil {
		return 0, 0, "", false
	}
	return s, n, dir, true
}
