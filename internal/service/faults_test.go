package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dsmphase/internal/harness"
)

// The fault tests' worker wrapper. A faultTable names, shard attempt by
// shard attempt, the fault a test forces; every attempt the table does
// not name runs clean. There is no seed and no draw: a test states its
// faults outright, so a row replays the same faults on every run.

// faultKind is one injectable fault.
type faultKind int

const (
	// clean leaves the attempt alone (the zero value: an attempt the
	// table does not name).
	clean faultKind = iota
	// transientExec fails the attempt before the worker would start: a
	// connection blip or fork failure.
	transientExec
	// slowStart delays the attempt by slowStartDelay, then runs it
	// normally: straggler and backoff timing without a failure.
	slowStart
	// hang blocks until the attempt's context is cancelled: a wedged
	// worker only AttemptTimeout can reclaim.
	hang
	// crashBeforeArtifact runs the shard, then deletes its artifact and
	// fails: the worker died after its last durable cell, so the retry
	// resumes from the intact stream.
	crashBeforeArtifact
	// tornStream is crashBeforeArtifact plus a stream whose final line
	// is cut mid-record: the crash landed mid-write.
	tornStream
	// corruptArtifact flips a content value of the written artifact and
	// reports success; only the content checksum can catch it.
	corruptArtifact
	// truncateArtifact cuts the written artifact in half and reports
	// success: a torn write.
	truncateArtifact
	// wrongFingerprint rewrites the artifact's grid fingerprints (the
	// checksum restamped) and reports success: a worker that ran the
	// wrong plan.
	wrongFingerprint

	// numFaultKinds counts the kinds, clean included.
	numFaultKinds
)

var faultKindNames = [numFaultKinds]string{
	"none", "transient-exec", "slow-start", "hang", "crash-before-artifact",
	"torn-stream", "corrupt-artifact", "truncate-artifact", "wrong-fingerprint",
}

func (k faultKind) String() string { return faultKindNames[k] }

// slowStartDelay is the slowStart stall.
const slowStartDelay = 50 * time.Millisecond

// faultAt names one shard attempt by the dispatcher's own per-shard
// attempt ordinal (the attempt_<k> of its work dir).
type faultAt struct{ shard, attempt int }

// faultTable is an explicit fault schedule: the kind each named shard
// attempt suffers.
type faultTable map[faultAt]faultKind

// wrap returns a Config.WrapWorker that puts every worker behind the
// table; each injected fault is logged to t.
func (ft faultTable) wrap(t *testing.T) func(Worker) Worker {
	return func(w Worker) Worker { return faultInjector{w, ft, t.Logf} }
}

// faultInjector runs a worker's attempts through a faultTable. An
// argument vector without the -shard/-shard-dir handshake passes
// through untouched.
type faultInjector struct {
	Worker
	table faultTable
	logf  func(format string, args ...any)
}

func (in faultInjector) Run(ctx context.Context, bin string, args []string) error {
	shard, of, dir, ok := shardArgs(args)
	if !ok {
		return in.Worker.Run(ctx, bin, args)
	}
	attempt, _ := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "attempt_"))
	kind := in.table[faultAt{shard, attempt}]
	if kind == clean {
		return in.Worker.Run(ctx, bin, args)
	}
	in.logf("fault: shard %d/%d attempt %d on %s: %v", shard, of, attempt, in.Name(), kind)
	switch kind {
	case transientExec:
		return fmt.Errorf("injected transient exec failure (shard %d attempt %d)", shard, attempt)
	case hang:
		<-ctx.Done()
		return fmt.Errorf("injected hang (shard %d attempt %d): %w", shard, attempt, ctx.Err())
	case slowStart:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(slowStartDelay):
		}
	}
	if err := in.Worker.Run(ctx, bin, args); err != nil || kind == slowStart {
		return err
	}
	artifact := filepath.Join(dir, shardBase(shard, of)+".json")
	switch kind {
	case crashBeforeArtifact:
		_ = os.Remove(artifact)
		return fmt.Errorf("injected crash before artifact write (shard %d attempt %d)", shard, attempt)
	case tornStream:
		_ = os.Remove(artifact)
		if err := tearStream(filepath.Join(dir, shardBase(shard, of)+".cells.jsonl")); err != nil {
			return fmt.Errorf("tearing stream: %w", err)
		}
		return fmt.Errorf("injected crash mid-stream (shard %d attempt %d)", shard, attempt)
	case corruptArtifact:
		// Report success: only the artifact's content checksum may catch
		// this.
		return corruptArtifactValue(artifact)
	case truncateArtifact:
		fi, err := os.Stat(artifact)
		if err != nil {
			return err
		}
		return os.Truncate(artifact, fi.Size()/2)
	case wrongFingerprint:
		return rewriteFingerprint(artifact)
	}
	return fmt.Errorf("fault kind %v not injectable", kind)
}

// shardArgs pulls the -shard i/n and -shard-dir values off a worker
// argument vector.
func shardArgs(args []string) (shard, of int, dir string, ok bool) {
	var spec string
	for i := 0; i+1 < len(args); i++ {
		switch args[i] {
		case "-shard":
			spec = args[i+1]
		case "-shard-dir":
			dir = args[i+1]
		}
	}
	if spec == "" || dir == "" {
		return 0, 0, "", false
	}
	shard, of, err := harness.ParseShard(spec)
	return shard, of, dir, err == nil
}

// corruptArtifactValue flips one content value of a shard-artifact
// file (the first cell's wall_ns, else the first grid's cell count)
// without restamping its checksum. Format, shard coordinates and
// fingerprints stay valid, so only the content checksum rejects it.
// Aimed at a cache entry, it is the corrupt disk-cache entry fault.
func corruptArtifactValue(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("corrupting %s: %w", path, err)
	}
	grids, _ := m["grids"].([]any)
	if len(grids) == 0 {
		return fmt.Errorf("corrupting %s: no grids", path)
	}
	g := grids[0].(map[string]any)
	if results, _ := g["results"].([]any); len(results) > 0 {
		r := results[0].(map[string]any)
		w, _ := r["wall_ns"].(float64)
		r["wall_ns"] = w + 1
	} else {
		n, _ := g["cells"].(float64)
		g["cells"] = n + 1
	}
	out, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// tearStream cuts a JSONL cell stream midway through its final line:
// the last durable cell is lost and the tail is unparseable, what a
// crash mid-append leaves behind.
func tearStream(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimRight(data, "\n")
	start := bytes.LastIndexByte(trimmed, '\n') + 1 // of the final line
	return os.Truncate(path, int64(start+(len(trimmed)-start)/2))
}

// rewriteFingerprint replaces every grid fingerprint of an artifact and
// restamps the checksum: an internally consistent artifact of a plan
// the coordinator never asked for.
func rewriteFingerprint(path string) error {
	a, err := harness.ReadShardArtifactFile(path)
	if err != nil {
		return err
	}
	for i := range a.Grids {
		a.Grids[i].Fingerprint = "deadbeefdeadbeef"
	}
	return harness.WriteShardArtifactFile(path, a)
}

// fakeRunner writes a valid artifact plus a two-line cell stream into
// the attempt dir, like a healthy worker would.
type fakeRunner struct {
	runs int
}

func (f *fakeRunner) Name() string { return "fake" }

func (f *fakeRunner) Run(ctx context.Context, bin string, args []string) error {
	f.runs++
	_, _, dir, ok := shardArgs(args)
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

// forced returns an injector that forces kind on shard 0's attempt 1,
// the attempt whose dir and files it also returns.
func forced(t *testing.T, kind faultKind) (Worker, *fakeRunner, string, string, []string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "attempt_1")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	inner := &fakeRunner{}
	in := faultTable{{0, 1}: kind}.wrap(t)(inner)
	args := []string{"-grids", "figure2", "-shard", "0/2", "-shard-dir", dir}
	return in, inner, filepath.Join(dir, "shard_0_of_2.json"), filepath.Join(dir, "shard_0_of_2.cells.jsonl"), args
}

// TestInjectorKinds checks each fault against a fake worker: which
// kinds run the worker, which report success, and what each leaves on
// disk.
func TestInjectorKinds(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		in, inner, artifact, _, args := forced(t, clean)
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
		in, inner, _, _, args := forced(t, transientExec)
		if err := in.Run(context.Background(), "bin", args); err == nil {
			t.Fatal("transient exec fault returned nil")
		}
		if inner.runs != 0 {
			t.Fatal("transient exec fault still ran the worker")
		}
	})

	t.Run("hang", func(t *testing.T) {
		in, inner, _, _, args := forced(t, hang)
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
		in, _, artifact, stream, args := forced(t, crashBeforeArtifact)
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
		in, _, artifact, stream, args := forced(t, tornStream)
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
		in, _, artifact, _, args := forced(t, corruptArtifact)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatalf("corrupt-artifact must report success, got %v", err)
		}
		if _, err := harness.ReadShardArtifactFile(artifact); !errors.Is(err, harness.ErrArtifactChecksum) {
			t.Fatalf("corrupted artifact read error = %v, want ErrArtifactChecksum", err)
		}
	})

	t.Run("truncate-artifact", func(t *testing.T) {
		in, _, artifact, _, args := forced(t, truncateArtifact)
		if err := in.Run(context.Background(), "bin", args); err != nil {
			t.Fatalf("truncate-artifact must report success, got %v", err)
		}
		if _, err := harness.ReadShardArtifactFile(artifact); err == nil {
			t.Fatal("truncated artifact still read cleanly")
		}
	})

	t.Run("wrong-fingerprint", func(t *testing.T) {
		in, _, artifact, _, args := forced(t, wrongFingerprint)
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
		in := faultTable{{0, 0}: transientExec}.wrap(t)(inner)
		err := in.Run(context.Background(), "bin", []string{"-grids", "figure2"})
		if err == nil || !strings.Contains(err.Error(), "no shard args") {
			t.Fatalf("non-shard run must pass through to inner (got %v)", err)
		}
		if inner.runs != 1 {
			t.Fatal("non-shard run did not reach the inner runner")
		}
	})
}
