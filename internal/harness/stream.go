package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"dsmphase/internal/trace"
)

// Per-cell shard streaming. A shard artifact is one JSON document
// written after every cell finished, so a worker that dies mid-shard
// leaves nothing behind and a retry restarts from zero. The stream is
// the durability sibling: while a shard runs, every completed cell is
// appended to a `<artifact>.cells.jsonl` file as one self-contained
// JSONL line the moment it completes. A re-run of the same shard reads
// the stream back, validates it against the plan (fingerprint, shard
// coordinates, cell count), skips every already-emitted cell and
// simulates only the remainder — and because each line carries the
// cell's full serialized result (wall timing, curve, summary, tuning
// rows, trace), the resumed artifact is byte-identical to one from an
// uninterrupted run.
//
// Line forms (one JSON object per line):
//
//	{"header":{"format":"dsmphase-cells/1","grid":"figure2",...}}
//	{"grid":"figure2","cell":{...ShardCell...}}
//
// A header opens each grid's section and repeats identically on every
// resume attempt; cell lines may interleave across grids freely. A
// truncated final line (the writer died mid-write) is ignored on read.

// CellStreamFormat is the versioned format tag of a cell stream. Keep
// docs/MERGE_FORMAT.md in lockstep on any change.
const CellStreamFormat = "dsmphase-cells/1"

// CellStreamPath derives the stream sibling's path from an artifact
// path ("shard0.json" → "shard0.cells.jsonl").
func CellStreamPath(artifact string) string {
	return strings.TrimSuffix(artifact, ".json") + ".cells.jsonl"
}

// CellStreamHeader identifies the plan a grid's streamed cells belong
// to. Resume refuses a stream whose header does not match the current
// plan exactly, so stale streams from different flags never leak cells
// into a run.
type CellStreamHeader struct {
	Format      string `json:"format"`
	Grid        string `json:"grid"`
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Of          int    `json:"of"`
	Cells       int    `json:"cells"`
}

// streamLine is the on-disk line union: exactly one of Header or Cell
// is set.
type streamLine struct {
	Header *CellStreamHeader `json:"header,omitempty"`
	Grid   string            `json:"grid,omitempty"`
	Cell   *ShardCell        `json:"cell,omitempty"`
}

// CellStream appends completed cells to a stream file. Append-mode and
// one Write syscall per line mean the data survives the writing
// process's death (it is in the kernel the moment the cell completes);
// a stream is single-writer — concurrent shard attempts must use
// distinct files.
type CellStream struct {
	mu  sync.Mutex
	f   *os.File
	err error // first write error; surfaced by Close
	// prior holds the cells ResumeCellStream recovered, per grid.
	prior map[string]*StreamedGrid
}

// writeLine marshals one line and appends it with a single write.
func (cs *CellStream) writeLine(l streamLine) {
	buf, err := json.Marshal(l)
	if err == nil {
		buf = append(buf, '\n')
		_, err = cs.f.Write(buf)
	}
	cs.mu.Lock()
	if cs.err == nil {
		cs.err = err
	}
	cs.mu.Unlock()
}

// appendCell streams one completed cell of a grid. Unlike the artifact,
// the stream never deduplicates traces across sibling cells — each
// line must be self-contained so any subset of lines resumes — so
// trace-enabled runs pay duplicate bytes here; the final artifact
// still deduplicates.
func (cs *CellStream) appendCell(grid string, r CellResult) {
	sc := newShardCell(r)
	if te, ok := r.Extra.(TracedExtra); ok && r.Err == nil {
		var sb strings.Builder
		for _, recs := range te.Records {
			if err := trace.WriteJSONL(&sb, recs); err != nil {
				cs.mu.Lock()
				if cs.err == nil {
					cs.err = fmt.Errorf("harness: streaming cell %d trace: %w", r.Index, err)
				}
				cs.mu.Unlock()
				return
			}
		}
		sc.Trace = sb.String()
	}
	cs.writeLine(streamLine{Grid: grid, Cell: &sc})
}

// Close flushes and reports the first write error, if any.
func (cs *CellStream) Close() error {
	err := cs.f.Close()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.err != nil {
		return cs.err
	}
	return err
}

// StreamedGrid is one grid's recovered stream: its header and the
// cells captured before the writer stopped, in arrival order.
type StreamedGrid struct {
	Header CellStreamHeader
	Cells  []ShardCell
}

// Matches reports whether the recovered grid belongs to the given plan
// coordinates — the resume-safety gate.
func (g *StreamedGrid) Matches(name, fingerprint string, shard, of, cells int) bool {
	h := g.Header
	return h.Format == CellStreamFormat && h.Grid == name && h.Fingerprint == fingerprint &&
		h.Shard == shard && h.Of == of && h.Cells == cells
}

// ReadCellStream recovers a stream file's grids. A missing file is an
// empty (nil) result; a truncated or corrupt tail ends the read at the
// last intact line (everything before it is kept). Repeated identical
// headers are continuations; a grid whose header changes mid-stream is
// dropped entirely (it cannot be trusted).
func ReadCellStream(path string) (map[string]*StreamedGrid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	grids := map[string]*StreamedGrid{}
	poisoned := map[string]bool{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			break // torn tail: keep what we have
		}
		switch {
		case l.Header != nil:
			h := *l.Header
			if g, ok := grids[h.Grid]; ok {
				if g.Header != h {
					poisoned[h.Grid] = true
				}
				continue
			}
			grids[h.Grid] = &StreamedGrid{Header: h}
		case l.Cell != nil:
			if g, ok := grids[l.Grid]; ok {
				g.Cells = append(g.Cells, *l.Cell)
			}
			// A cell before any header is an impossible stream; drop it.
		}
	}
	for name := range poisoned {
		delete(grids, name)
	}
	return grids, nil
}

// ResumeCellStream opens the stream file of a RunGrids shard run for
// appending and recovers the cells an earlier attempt of the same run
// left in it; RunGrids reuses them instead of running those cells
// again. Every recovered section must match its grid's plan exactly
// (fingerprint, shard coordinates, cell count). A stream holding any
// other section was written under different flags, so it is deleted
// whole, the run starts over, and restarted reports it.
func ResumeCellStream(path string, grids []NamedGrid, shard, of int) (cs *CellStream, restarted bool, err error) {
	prior, err := ReadCellStream(path)
	if err != nil {
		return nil, false, err
	}
	want := make(map[string]CellStreamHeader, len(grids))
	for _, g := range grids {
		want[g.Name] = streamHeader(g.Name, g.Spec.Plan(), shard, of)
	}
	for name, sg := range prior {
		if h, ok := want[name]; !ok || sg.Header != h {
			if err := os.Remove(path); err != nil {
				return nil, false, err
			}
			prior, restarted = nil, true
			break
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	return &CellStream{f: f, prior: prior}, restarted, nil
}

// streamHeader is the header of a grid's stream section in a shard run.
func streamHeader(grid string, p *Plan, shard, of int) CellStreamHeader {
	return CellStreamHeader{
		Format:      CellStreamFormat,
		Grid:        grid,
		Fingerprint: p.Fingerprint(),
		Shard:       shard,
		Of:          of,
		Cells:       p.Len(),
	}
}

// resumeGrid opens a grid's section of a RunGrids shard run and fills
// results from the cells recovered for it, marking them in have;
// results and have are indexed like idxs, the shard's plan indices. It
// returns how many cells it filled. A recovered cell outside the shard
// is an error, not a silent merge; a duplicate line (two resumed
// attempts) keeps the first.
func (cs *CellStream) resumeGrid(grid string, p *Plan, shard, of int, idxs []int, results []CellResult, have []bool) (int, error) {
	// Resume attempts repeat the identical header; the reader treats
	// repeats as continuation.
	h := streamHeader(grid, p, shard, of)
	cs.writeLine(streamLine{Header: &h})
	sg := cs.prior[grid]
	if sg == nil {
		return 0, nil
	}
	if sg.Header != h {
		return 0, fmt.Errorf("harness: resume %s: the stream was written for a different plan or shard", grid)
	}
	pos := make(map[int]int, len(idxs)) // plan index → position in idxs
	for j, i := range idxs {
		pos[i] = j
	}
	resumed := 0
	for _, sc := range sg.Cells {
		j, ok := pos[sc.Index]
		if !ok {
			return 0, fmt.Errorf("harness: resume %s: streamed cell %d is not part of shard %d/%d", grid, sc.Index, shard, of)
		}
		if have[j] {
			continue
		}
		r, err := sc.CellResult()
		if err != nil {
			return 0, fmt.Errorf("harness: resume %s: %w", grid, err)
		}
		results[j] = r
		have[j] = true
		resumed++
	}
	return resumed, nil
}
