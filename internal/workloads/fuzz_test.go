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
