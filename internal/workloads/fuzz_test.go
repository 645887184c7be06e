package workloads

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/trace"
)

// FuzzFromTrace fuzzes trace ingestion end to end — JSONL decoding, then
// FromTrace's validation and segmentation — seeded with the committed
// ping-pong capture and with addresses a float64 cannot hold. An error
// is fine; a panic is not. An accepted trace's canonical source must
// re-parse as a spec with the same definition hash and hold exactly the
// accepted records, and its threads must drain.
func FuzzFromTrace(f *testing.F) {
	pingpong, err := os.ReadFile("../../examples/trace_ingest/pingpong_trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pingpong)
	f.Add(pingpong[:bytes.IndexByte(pingpong, '\n')+1])
	f.Add([]byte(`{"proc":0,"op":"int","n":1000000000000}`))
	f.Add([]byte(`{"proc":0,"op":"load","pc":4,"addr":1152921504606847008}` + "\n" +
		`{"proc":0,"op":"store","pc":8,"addr":1152921504606847072}`))
	f.Add([]byte(`{"proc":0,"op":"load","pc":4,"addr":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadAccessJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		w, err := FromTrace("fuzz-trace", "fuzzed capture", recs)
		if err != nil {
			return
		}
		again, err := ParseSpec(w.Source())
		if err != nil {
			t.Fatalf("canonical source rejected: %v\n%s", err, w.Source())
		}
		if again.Hash() != w.Hash() {
			t.Fatalf("re-parsed hash %016x, want %016x", again.Hash(), w.Hash())
		}
		var spec rawSpec
		if err := json.Unmarshal(w.Source(), &spec); err != nil {
			t.Fatalf("canonical source does not decode: %v", err)
		}
		if !slices.Equal(spec.Trace.Records, recs) {
			t.Fatalf("canonical source holds records %+v, want %+v", spec.Trace.Records, recs)
		}
		e := isa.NewEmitter(4096)
		for _, th := range w.Threads(3, SizeTest, 1) {
			for e.Reset(); th.NextBatch(e); e.Reset() {
			}
		}
	})
}

// FuzzParseSpec fuzzes the spec front end, seeded with every committed
// example spec (and, for those that reference a trace file, the
// self-contained source LoadSpecFile makes of them). An error is fine;
// a panic is not. Canonicalization is idempotent: an accepted spec's
// canonical source parses to the same source and definition hash.
func FuzzParseSpec(f *testing.F) {
	err := filepath.WalkDir(examplePath(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || filepath.Ext(path) != ".wdl" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f.Add(src)
		sw, err := LoadSpecFile(path)
		if err != nil {
			return err
		}
		f.Add(sw.Source())
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sw, err := ParseSpec(src)
		if err != nil {
			return
		}
		again, err := ParseSpec(sw.Source())
		if err != nil {
			t.Fatalf("canonical source rejected: %v\n%s", err, sw.Source())
		}
		if !bytes.Equal(again.Source(), sw.Source()) || again.Hash() != sw.Hash() {
			t.Fatalf("canonical source not a fixed point: %016x %s\nwant %016x %s", again.Hash(), again.Source(), sw.Hash(), sw.Source())
		}
	})
}

// FuzzSpecInvariants: any byte string either fails ParseSpec with a
// clean error or yields a spec that holds every hard invariant
// (checkInvariants). Specs over the work guard are skipped, not drained.
func FuzzSpecInvariants(f *testing.F) {
	for _, rel := range []string{"oscillate.wdl", "drift.wdl"} {
		src, err := os.ReadFile(examplePath("adversarial_phases", rel))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add([]byte(`{"name":"t","description":"d","phases":[{"blocks":[{"kind":"stride","count":4}]}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, src []byte) {
		sw, err := ParseSpec(src)
		if err != nil {
			return
		}
		if estimateWork(src) > maxWork {
			t.Skip("spec too large to drain")
		}
		checkInvariants(t, sw, src)
	})
}

// TestSeedCorpusInvariants holds every committed example spec to the
// hard invariants. Specs that reference a trace file parse only through
// LoadSpecFile, so their self-contained source stands in for the file.
func TestSeedCorpusInvariants(t *testing.T) {
	found := 0
	err := filepath.WalkDir(examplePath(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || filepath.Ext(path) != ".wdl" {
			return err
		}
		found++
		sw, err := LoadSpecFile(path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := ParseSpec(src); err != nil {
			src = sw.Source()
		}
		t.Run(filepath.Base(path), func(t *testing.T) { checkInvariants(t, sw, src) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found < 3 {
		t.Fatalf("walked only %d .wdl files, corpus missing?", found)
	}
}

// drainCap bounds the instructions drained per thread by
// checkInvariants, so a spec that inflates repeat counts cannot stall
// the fuzzer. Streams truncated at the cap still check determinism
// (both drains truncate identically); barrier agreement is skipped.
const drainCap = 2_000_000

// maxWork is the estimateWork ceiling a spec must stay under to be
// drained: the drain cap is checked between batches, so it cannot
// interrupt a single multi-billion-instruction batch.
const maxWork = 4_000_000

// checkInvariants holds an accepted spec to the hard invariants,
// however hostile its parameters: neither re-parsing its canonical
// source nor re-indenting src moves the definition hash, each thread's
// stream is a pure function of (n, size, seed), and every thread emits
// the same number of barriers. A panic while draining fails the test by
// itself. Callers keep specs over maxWork away from it.
func checkInvariants(t *testing.T, sw *SpecWorkload, src []byte) {
	t.Helper()
	if re, err := ParseSpec(sw.Source()); err != nil || re.Hash() != sw.Hash() {
		t.Fatalf("canonical source does not re-parse to hash %016x: %v", sw.Hash(), err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, src, "", "  "); err == nil {
		re, err := ParseSpec(indented.Bytes())
		if err != nil {
			t.Fatalf("re-indented source rejected: %v", err)
		}
		if re.Hash() != sw.Hash() {
			t.Fatalf("re-indented source hash %016x, want %016x", re.Hash(), sw.Hash())
		}
	}
	streams, truncated := drainCapped(sw)
	again, _ := drainCapped(sw)
	for tid := range streams {
		if !slices.Equal(streams[tid], again[tid]) {
			t.Fatalf("thread %d's stream differs between identical drains", tid)
		}
	}
	if truncated {
		return
	}
	barriers := make([]int, len(streams))
	for tid, st := range streams {
		for _, in := range st {
			if in.Op == isa.OpSync {
				barriers[tid]++
			}
		}
		if barriers[tid] != barriers[0] {
			t.Fatalf("thread %d emits %d barriers, thread 0 emits %d", tid, barriers[tid], barriers[0])
		}
	}
}

// drainCapped drains every thread of a 2-thread instance at SizeTest,
// seed 1, stopping each thread at drainCap instructions.
func drainCapped(sw *SpecWorkload) (streams [][]isa.Inst, truncated bool) {
	ths := sw.Threads(2, SizeTest, 1)
	streams = make([][]isa.Inst, len(ths))
	e := isa.NewEmitter(4096)
	for tid, th := range ths {
		for e.Reset(); len(streams[tid]) < drainCap && th.NextBatch(e); e.Reset() {
			streams[tid] = append(streams[tid], e.Take()...)
		}
		truncated = truncated || len(streams[tid]) >= drainCap
	}
	return streams, truncated
}

// estimateWork approximates the instruction volume a spec would emit at
// SizeTest from its generic JSON form, without compiling it: the product
// of each block's size-like fields, summed over blocks, scaled by phase
// and spec repeats. It over-estimates on purpose; its one job is to
// keep checkInvariants out of a batch too large to drain.
func estimateWork(src []byte) float64 {
	var spec map[string]any
	if err := json.Unmarshal(src, &spec); err != nil {
		return 0
	}
	num := func(v any) float64 {
		if f, ok := v.(float64); ok && f > 1 {
			return f
		}
		return 1
	}
	total := 0.0
	phases, _ := spec["phases"].([]any)
	for _, p := range phases {
		ph, _ := p.(map[string]any)
		w := 0.0
		blocks, _ := ph["blocks"].([]any)
		for _, b := range blocks {
			blk, _ := b.(map[string]any)
			bw := 1.0
			for _, k := range []string{"count", "walks", "elems", "grid", "nodes", "depth", "points", "degree"} {
				if bw *= num(blk[k]); bw > 1e18 {
					return bw
				}
			}
			w += bw
		}
		total += w * num(ph["repeat"])
	}
	total *= num(spec["repeat"])
	if sc, ok := spec["scale"].(map[string]any); ok {
		total *= num(sc["test"])
	}
	return total
}

// TestEstimateWorkGuards checks the work guard lets the committed
// adversarial specs through and rejects an inflated one.
func TestEstimateWorkGuards(t *testing.T) {
	for _, rel := range []string{"oscillate.wdl", "drift.wdl"} {
		src, err := os.ReadFile(examplePath("adversarial_phases", rel))
		if err != nil {
			t.Fatal(err)
		}
		if w := estimateWork(src); w <= 0 || w > maxWork {
			t.Errorf("%s: estimated work %.0f outside (0, %d]", rel, w, int(maxWork))
		}
	}
	huge := []byte(`{"name":"huge","description":"x","repeat":1000000,
		"phases":[{"repeat":1000000,"blocks":[{"kind":"stride","count":1000000}]}]}`)
	if w := estimateWork(huge); w <= maxWork {
		t.Errorf("inflated spec estimated at %.0f, want > %d", w, int(maxWork))
	}
}
