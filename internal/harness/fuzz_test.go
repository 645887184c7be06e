package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dsmphase/internal/workloads"
)

// FuzzReadShardArtifact feeds arbitrary bytes to the shard-artifact
// reader and every accepted artifact to MergeShards: an error is fine,
// a panic is not. An accepted artifact must re-encode to bytes that
// read back and re-encode identically.
func FuzzReadShardArtifact(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "shard.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(append(append([]byte{}, golden...), golden...))
	f.Add([]byte(`{"format":"` + ShardFormat + `","shard":0,"of":1,"grids":[{"name":"golden","results":[{"index":0,"trace_ref":0}]}]}`))
	// The spec shard.golden was written from (TestGoldenShardArtifact).
	spec := NewSpec(WithApps("fmm"), WithProcs(2), WithSize(workloads.SizeTest), WithInterval(20_000))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadShardArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		MergeShards(spec, "golden", []*ShardArtifact{a})
		first := encodeArtifact(t, a)
		b, err := ReadShardArtifact(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v\n%s", err, first)
		}
		if second := encodeArtifact(t, b); !bytes.Equal(first, second) {
			t.Fatalf("artifact does not survive re-encoding:\n%s\nvs\n%s", first, second)
		}
	})
}

func encodeArtifact(t *testing.T, a *ShardArtifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, a); err != nil {
		t.Fatalf("accepted artifact does not encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzResumeCellStream writes arbitrary bytes as a shard run's cell
// stream and resumes from it, decoding every recovered cell as RunGrids
// would: an error is fine, a panic is not. The recovered sections must
// re-encode to a stream that reads back and re-encodes identically.
// The seeds are a RunGrids stream of streamSpec, whole and with its
// tail torn mid-line.
func FuzzResumeCellStream(f *testing.F) {
	s := streamSpec()
	grids := []NamedGrid{{Name: "g", Spec: s}}
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.cells.jsonl")
	cs, _, err := ResumeCellStream(seedPath, grids, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := RunGrids(grids, 0, 1, Options{Parallel: 1}, false, cs); err != nil {
		f.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		f.Fatal(err)
	}
	stream, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-len(stream)/4])

	p := s.Plan()
	idxs := p.ShardIndices(0, 1)
	path := filepath.Join(dir, "fuzz.cells.jsonl")
	rePath := filepath.Join(dir, "re.cells.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cs, _, err := ResumeCellStream(path, grids, 0, 1)
		if err != nil {
			return
		}
		prior := cs.prior
		cs.resumeGrid("g", p, 0, 1, idxs, make([]CellResult, len(idxs)), make([]bool, len(idxs)))
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		first := encodeStream(t, rePath, prior)
		again, err := ReadCellStream(rePath)
		if err != nil {
			t.Fatal(err)
		}
		if second := encodeStream(t, rePath, again); !bytes.Equal(first, second) {
			t.Fatalf("stream does not survive re-encoding:\n%s\nvs\n%s", first, second)
		}
	})
}

// encodeStream writes recovered grids to path as a cell stream — each
// grid's header, then its cells, grids in name order — and returns the
// file's bytes.
func encodeStream(t *testing.T, path string, grids map[string]*StreamedGrid) []byte {
	t.Helper()
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cs := &CellStream{f: fh}
	names := make([]string, 0, len(grids))
	for name := range grids {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := grids[name]
		cs.writeLine(streamLine{Header: &g.Header})
		for i := range g.Cells {
			cs.writeLine(streamLine{Grid: name, Cell: &g.Cells[i]})
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
