package workloads

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dsmphase/internal/isa"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/streams.golden")

// streamCase is one (workload, size, n, seed) point of the stream pin.
type streamCase struct {
	size Size
	n    int
	seed uint64
}

// streamCases is the pinned grid: every n the experiments use (and 1)
// at test size under two seeds, plus the small size at two geometries.
func streamCases() []streamCase {
	var out []streamCase
	for _, seed := range []uint64{1, 7} {
		for _, n := range []int{1, 2, 8, 32} {
			out = append(out, streamCase{SizeTest, n, seed})
		}
	}
	for _, n := range []int{2, 32} {
		out = append(out, streamCase{SizeSmall, n, 1})
	}
	return out
}

// workloadDigest drains every thread of one instantiation and folds the
// per-thread digests, in thread order, into one.
func workloadDigest(w Workload, c streamCase) (instrs int, digest uint64) {
	e := isa.NewEmitter(4096)
	var all streamDigest
	for _, th := range w.Threads(c.n, c.size, c.seed) {
		var d streamDigest
		for e.Reset(); th.NextBatch(e); e.Reset() {
			d.add(e.Take())
		}
		all.n += d.n
		all.mix(uint64(d.n))
		all.mix(d.hash)
	}
	return all.n, all.hash
}

// TestStreamDigests pins every built-in workload's per-batch instruction
// stream — batch boundaries included — against testdata/streams.golden.
// The streams feed every report golden, so a generator refactor must
// leave this file unchanged. Regenerate after an intentional stream
// change with `go test ./internal/workloads -run TestStreamDigests -update`.
func TestStreamDigests(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range All() {
		if DefinitionHash(w.Name()) != 0 {
			continue // DSL specs and traces registered by other tests
		}
		for _, c := range streamCases() {
			instrs, digest := workloadDigest(w, c)
			fmt.Fprintf(&buf, "%s %s n=%d seed=%d instrs=%d digest=%016x\n",
				w.Name(), c.size, c.n, c.seed, instrs, digest)
		}
	}
	path := filepath.Join("testdata", "streams.golden")
	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("stream digest mismatch at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stream digest golden has %d lines, run produced %d", len(wl), len(gl))
	}
}
