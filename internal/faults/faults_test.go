package faults

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmphase/internal/harness"
)

// TestDrawDeterministic: Draw is a pure function of (Seed, shard,
// attempt) — two plans with the same seed agree everywhere, and a
// different seed produces a different schedule.
func TestDrawDeterministic(t *testing.T) {
	mix := []Weighted{{None, 6}, {TransientExec, 1}, {Hang, 1}, {TornStream, 1}, {CorruptArtifact, 1}}
	a := &Plan{Seed: 7, Mix: mix}
	b := &Plan{Seed: 7, Mix: mix}
	c := &Plan{Seed: 8, Mix: mix}
	same, diff := true, false
	for shard := 0; shard < 8; shard++ {
		for attempt := 0; attempt < 8; attempt++ {
			if a.Draw(shard, attempt) != b.Draw(shard, attempt) {
				same = false
			}
			if a.Draw(shard, attempt) != c.Draw(shard, attempt) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed drew different schedules")
	}
	if !diff {
		t.Error("seeds 7 and 8 drew identical 64-draw schedules")
	}
}

// TestDrawPolicies: ReliableAfter forces late attempts clean, and a
// victim shard cycles its own mix regardless.
func TestDrawPolicies(t *testing.T) {
	p := &Plan{
		Seed:          1,
		Mix:           []Weighted{{TransientExec, 1}}, // every ordinary draw faults
		ReliableAfter: 2,
		Victim:        3,
		VictimMix:     []Kind{Hang, TransientExec},
	}
	if got := p.Draw(0, 0); got != TransientExec {
		t.Errorf("early ordinary draw = %v, want transient-exec", got)
	}
	if got := p.Draw(0, 2); got != None {
		t.Errorf("draw past ReliableAfter = %v, want none", got)
	}
	for attempt, want := range []Kind{Hang, TransientExec, Hang, TransientExec} {
		if got := p.Draw(3, attempt); got != want {
			t.Errorf("victim attempt %d = %v, want %v", attempt, got, want)
		}
	}
}

// TestNextCountsPerShard: attempt ordinals advance independently per
// shard.
func TestNextCountsPerShard(t *testing.T) {
	p := &Plan{}
	for _, want := range []int{0, 1, 2} {
		if got := p.Next(5); got != want {
			t.Fatalf("Next(5) = %d, want %d", got, want)
		}
	}
	if got := p.Next(6); got != 0 {
		t.Fatalf("Next(6) = %d, want 0 (counters must be per-shard)", got)
	}
}

// fakeRunner writes a valid artifact plus a two-line cell stream into
// the attempt dir, like a healthy worker would.
type fakeRunner struct {
	runs int
}

func (f *fakeRunner) Name() string { return "fake" }

func (f *fakeRunner) Run(ctx context.Context, bin string, args []string) error {
	f.runs++
	_, _, dir, ok := parseShardArgs(args)
	if !ok {
		return fmt.Errorf("fake runner: no shard args")
	}
	a := &harness.ShardArtifact{
		Format: harness.ShardFormat, Shard: 0, Of: 2,
		Grids: []harness.ShardGrid{{
			Name: "g", Cells: 1, Fingerprint: "f0f0f0f0f0f0f0f0",
			Results: []harness.ShardCell{{Index: 0, Workload: "lu", Size: "test", Procs: 2,
				Interval: 1, Seed: 1, Detector: "bbv", WallNS: 5}},
		}},
	}
	if err := harness.WriteShardArtifactFile(filepath.Join(dir, "shard_0_of_2.json"), a); err != nil {
		return err
	}
	stream := "{\"cell\":1}\n{\"cell\":2}\n"
	return os.WriteFile(filepath.Join(dir, "shard_0_of_2.cells.jsonl"), []byte(stream), 0o644)
}

// forced returns an injector whose every draw is the given kind, plus
// the attempt dir and derived file paths.
func forced(t *testing.T, kind Kind) (*Injector, *fakeRunner, string, string, []string) {
	t.Helper()
	dir := t.TempDir()
	inner := &fakeRunner{}
	plan := &Plan{Mix: []Weighted{{kind, 1}}}
	in := Wrap(inner, plan, t.Logf)
	args := []string{"-grids", "figure2", "-shard", "0/2", "-shard-dir", dir}
	return in, inner, filepath.Join(dir, "shard_0_of_2.json"), filepath.Join(dir, "shard_0_of_2.cells.jsonl"), args
}

func TestInjectorKinds(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		in, inner, artifact, _, args := forced(t, None)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatal(err)
		}
		if inner.runs != 1 {
			t.Fatalf("inner ran %d times, want 1", inner.runs)
		}
		if _, err := harness.ReadShardArtifactFile(artifact); err != nil {
			t.Fatalf("clean run's artifact unreadable: %v", err)
		}
	})

	t.Run("transient-exec", func(t *testing.T) {
		in, inner, _, _, args := forced(t, TransientExec)
		if err := in.Run(context.Background(), "bin", args); err == nil {
			t.Fatal("transient exec fault returned nil")
		}
		if inner.runs != 0 {
			t.Fatal("transient exec fault still ran the worker")
		}
	})

	t.Run("hang", func(t *testing.T) {
		in, inner, _, _, args := forced(t, Hang)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := in.Run(ctx, "bin", args); err == nil {
			t.Fatal("hang returned nil after cancellation")
		}
		if inner.runs != 0 {
			t.Fatal("hang ran the worker")
		}
	})

	t.Run("crash-before-artifact", func(t *testing.T) {
		in, _, artifact, stream, args := forced(t, CrashBeforeArtifact)
		if err := in.Run(context.Background(), "bin", args); err == nil {
			t.Fatal("crash fault returned nil")
		}
		if _, err := os.Stat(artifact); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("crash fault left the artifact behind")
		}
		if data, err := os.ReadFile(stream); err != nil || len(data) == 0 {
			t.Fatalf("crash fault must preserve the stream (err %v)", err)
		}
	})

	t.Run("torn-stream", func(t *testing.T) {
		in, _, artifact, stream, args := forced(t, TornStream)
		if err := in.Run(context.Background(), "bin", args); err == nil {
			t.Fatal("torn-stream fault returned nil")
		}
		if _, err := os.Stat(artifact); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("torn-stream fault left the artifact behind")
		}
		data, err := os.ReadFile(stream)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(data), "{\"cell\":1}\n{\"cell\":2}\n"; got == want || !strings.HasPrefix(want, got) {
			t.Fatalf("stream %q: want a strict mid-line prefix of %q", got, want)
		}
	})

	t.Run("corrupt-artifact", func(t *testing.T) {
		in, _, artifact, _, args := forced(t, CorruptArtifact)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatalf("corrupt-artifact must report success, got %v", err)
		}
		if _, err := harness.ReadShardArtifactFile(artifact); !errors.Is(err, harness.ErrArtifactChecksum) {
			t.Fatalf("corrupted artifact read error = %v, want ErrArtifactChecksum", err)
		}
	})

	t.Run("truncate-artifact", func(t *testing.T) {
		in, _, artifact, _, args := forced(t, TruncateArtifact)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatalf("truncate-artifact must report success, got %v", err)
		}
		if _, err := harness.ReadShardArtifactFile(artifact); err == nil {
			t.Fatal("truncated artifact still read cleanly")
		}
	})

	t.Run("wrong-fingerprint", func(t *testing.T) {
		in, _, artifact, _, args := forced(t, WrongFingerprint)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatalf("wrong-fingerprint must report success, got %v", err)
		}
		a, err := harness.ReadShardArtifactFile(artifact)
		if err != nil {
			t.Fatalf("wrong-fingerprint artifact must stay internally consistent, got %v", err)
		}
		if a.Grids[0].Fingerprint == "f0f0f0f0f0f0f0f0" {
			t.Fatal("fingerprint unchanged")
		}
	})

	t.Run("no-shard-args-pass-through", func(t *testing.T) {
		inner := &fakeRunner{}
		in := Wrap(inner, &Plan{Mix: []Weighted{{TransientExec, 1}}}, nil)
		err := in.Run(context.Background(), "bin", []string{"-grids", "figure2"})
		if err == nil || !strings.Contains(err.Error(), "no shard args") {
			t.Fatalf("non-shard run must pass through to inner (got %v)", err)
		}
		if inner.runs != 1 {
			t.Fatal("non-shard run did not reach the inner runner")
		}
	})
}
