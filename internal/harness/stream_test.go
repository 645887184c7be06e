package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/workloads"
)

// streamSpec is the small grid the stream tests run: 1 app × 1 proc ×
// 2 detectors × 2 replicates = 4 cells.
func streamSpec() *Spec {
	return NewSpec(
		WithApps("lu"),
		WithProcs(2),
		WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		WithSize(workloads.SizeTest),
		WithInterval(20_000),
		WithSeed(1),
		WithReplicates(2),
	)
}

// normalizedGrid serializes a result set as an artifact grid with the
// one nondeterministic field (wall_ns) zeroed — everything else must
// match byte for byte between an uninterrupted and a resumed run.
func normalizedGrid(t *testing.T, s *Spec, results []CellResult) []byte {
	t.Helper()
	g, err := NewShardGrid("g", s, results, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Results {
		g.Results[i].WallNS = 0
	}
	buf, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// runStreamed runs shard `shard` of `of` of one grid through RunGrids,
// resuming from and streaming to the cell stream at path.
func runStreamed(t *testing.T, g NamedGrid, shard, of int, path string, opts Options) (results []CellResult, resumed int) {
	t.Helper()
	cs, restarted, err := ResumeCellStream(path, []NamedGrid{g}, shard, of)
	if err != nil {
		t.Fatal(err)
	}
	if restarted {
		t.Fatal("stream of the same run judged stale")
	}
	all, resumed, err := RunGrids([]NamedGrid{g}, shard, of, opts, false, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return all[0], resumed
}

// truncateStream rewrites a stream file keeping the header lines plus
// the first keep cell lines — simulating a run killed mid-shard (the
// durable prefix survives, nothing else does).
func truncateStream(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	cells := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, `{"header"`) {
			out = append(out, line)
			continue
		}
		if cells < keep {
			out = append(out, line)
			cells++
		}
	}
	if cells < keep {
		t.Fatalf("stream has only %d cell lines, want >= %d", cells, keep)
	}
	if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardStreamedResume is the kill-and-resume contract: a shard
// killed mid-run (its stream truncated to a prefix) resumes from the
// stream, re-simulates only the missing cells, and produces an
// artifact byte-identical (modulo wall timing) — and a rendered report
// byte-identical, full stop — to an uninterrupted run.
func TestRunShardStreamedResume(t *testing.T) {
	s := streamSpec()
	g := NamedGrid{Name: "g", Spec: s}
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "shard_0_of_1.cells.jsonl")

	full, resumed := runStreamed(t, g, 0, 1, streamPath, Options{Parallel: 2})
	if resumed != 0 {
		t.Fatalf("fresh run resumed %d cells, want 0", resumed)
	}
	if len(full) != s.Plan().Len() {
		t.Fatalf("got %d results, want %d", len(full), s.Plan().Len())
	}

	// Kill the run after 2 durable cells, then resume.
	const keep = 2
	truncateStream(t, streamPath, keep)
	grids, err := ReadCellStream(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	sg, ok := grids["g"]
	if !ok {
		t.Fatal("truncated stream lost its grid section")
	}
	if !sg.Matches("g", s.Plan().Fingerprint(), 0, 1, s.Plan().Len()) {
		t.Fatal("recovered header does not match the plan")
	}
	if len(sg.Cells) != keep {
		t.Fatalf("recovered %d cells, want %d", len(sg.Cells), keep)
	}

	ran := 0
	opts := Options{Parallel: 2, Progress: func(done, total int, r CellResult) { ran++ }}
	got, resumed := runStreamed(t, g, 0, 1, streamPath, opts)
	if resumed != keep {
		t.Fatalf("resumed %d cells, want %d", resumed, keep)
	}
	if want := s.Plan().Len() - keep; ran != want {
		t.Fatalf("resume re-simulated %d cells, want %d", ran, want)
	}

	if a, b := normalizedGrid(t, s, full), normalizedGrid(t, s, got); !bytes.Equal(a, b) {
		t.Errorf("resumed artifact differs from uninterrupted run:\n%s\nvs\n%s", a, b)
	}
	// The rendered report has no wall-clock at all, so it must match
	// byte for byte in every encoder format.
	for _, format := range EncoderNames() {
		enc, err := NewEncoder(format, "t")
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := enc.Encode(&a, s.Assemble(full)); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&b, s.Assemble(got)); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s report differs between uninterrupted and resumed run", format)
		}
	}

	// After the resume run, the stream holds every cell: a second resume
	// runs nothing.
	grids, err = ReadCellStream(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(grids["g"].Cells); n != s.Plan().Len() {
		t.Fatalf("stream holds %d cells after resume, want %d", n, s.Plan().Len())
	}
}

// TestReadCellStreamTornTail: a write torn mid-line (the writer died
// inside the final write) must not poison the intact prefix.
func TestReadCellStreamTornTail(t *testing.T) {
	s := streamSpec()
	dir := t.TempDir()
	path := filepath.Join(dir, "s.cells.jsonl")
	runStreamed(t, NamedGrid{Name: "g", Spec: s}, 0, 1, path, Options{Parallel: 2})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final line in half.
	torn := data[:len(data)-len(data)/4]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	grids, err := ReadCellStream(path)
	if err != nil {
		t.Fatal(err)
	}
	g := grids["g"]
	if g == nil {
		t.Fatal("torn tail dropped the whole grid")
	}
	if len(g.Cells) == 0 || len(g.Cells) >= s.Plan().Len() {
		t.Fatalf("recovered %d cells from torn stream, want a strict prefix of %d", len(g.Cells), s.Plan().Len())
	}
	for _, sc := range g.Cells {
		if _, err := sc.CellResult(); err != nil {
			t.Fatalf("recovered cell %d does not round-trip: %v", sc.Index, err)
		}
	}
}

// TestReadCellStreamHeaderChange: a grid whose header changes
// mid-stream (two different plans interleaved into one file) cannot be
// trusted and is dropped whole; a missing file reads as empty.
func TestReadCellStreamHeaderChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.cells.jsonl")
	lines := []string{
		`{"header":{"format":"` + CellStreamFormat + `","grid":"g","fingerprint":"aaaa","shard":0,"of":1,"cells":4}}`,
		`{"header":{"format":"` + CellStreamFormat + `","grid":"g","fingerprint":"bbbb","shard":0,"of":1,"cells":4}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	grids, err := ReadCellStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := grids["g"]; ok {
		t.Fatal("conflicting headers should drop the grid")
	}
	grids, err = ReadCellStream(filepath.Join(dir, "missing.cells.jsonl"))
	if err != nil || grids != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", grids, err)
	}
}

// TestRunShardStreamedRejectsForeignCell: a recovered cell whose plan
// index does not belong to the resumed shard is a hard error, not a
// silent merge.
func TestRunShardStreamedRejectsForeignCell(t *testing.T) {
	g := NamedGrid{Name: "g", Spec: streamSpec()}
	p := g.Spec.Plan()
	other := p.ShardIndices(1, 2)
	if len(p.ShardIndices(0, 2)) == 0 || len(other) == 0 {
		t.Skip("degenerate partition")
	}
	path := filepath.Join(t.TempDir(), "shard_0_of_2.cells.jsonl")
	var lines bytes.Buffer
	for _, l := range []streamLine{
		{Header: &CellStreamHeader{Format: CellStreamFormat, Grid: "g", Fingerprint: p.Fingerprint(), Shard: 0, Of: 2, Cells: p.Len()}},
		{Grid: "g", Cell: &ShardCell{Index: other[0]}},
	} {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		lines.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, lines.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cs, restarted, err := ResumeCellStream(path, []NamedGrid{g}, 0, 2)
	if err != nil || restarted {
		t.Fatalf("ResumeCellStream = restarted %v, %v; want the section kept", restarted, err)
	}
	defer cs.Close()
	if _, _, err := RunGrids([]NamedGrid{g}, 0, 2, Options{}, false, cs); err == nil {
		t.Fatal("foreign prior cell accepted")
	}
}

// TestResumeCellStreamRestartsStale: a stream holding a section from
// different flags is deleted whole, and the run starts over.
func TestResumeCellStreamRestartsStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard_0_of_1.cells.jsonl")
	runStreamed(t, NamedGrid{Name: "g", Spec: streamSpec()}, 0, 1, path, Options{Parallel: 2})
	other := NamedGrid{Name: "g", Spec: NewSpec(WithApps("lu"), WithProcs(2),
		WithSize(workloads.SizeTest), WithInterval(20_000), WithSeed(7))}
	cs, restarted, err := ResumeCellStream(path, []NamedGrid{other}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if !restarted {
		t.Fatal("stream of a different plan resumed")
	}
	if _, resumed, err := RunGrids([]NamedGrid{other}, 0, 1, Options{Parallel: 2}, false, cs); err != nil || resumed != 0 {
		t.Fatalf("restarted run resumed %d cells (%v), want 0", resumed, err)
	}
}

// TestCellStreamPath pins the sibling naming convention the service's
// resume copy relies on.
func TestCellStreamPath(t *testing.T) {
	if got := CellStreamPath("d/shard_0_of_2.json"); got != "d/shard_0_of_2.cells.jsonl" {
		t.Fatalf("CellStreamPath = %q", got)
	}
}
