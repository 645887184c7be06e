package workloads

import (
	"bytes"
	"os"
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/trace"
)

// FuzzFromTrace fuzzes trace ingestion end to end — JSONL decoding, then
// FromTrace's validation and segmentation — seeded with the committed
// ping-pong capture. An error is fine; a panic is not. An accepted
// trace's canonical source must re-parse as a spec with the same
// definition hash, and its threads must drain.
func FuzzFromTrace(f *testing.F) {
	pingpong, err := os.ReadFile("../../examples/trace_ingest/pingpong_trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pingpong)
	f.Add(pingpong[:bytes.IndexByte(pingpong, '\n')+1])
	f.Add([]byte(`{"proc":0,"op":"int","n":1000000000000}`))
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
		e := isa.NewEmitter(4096)
		for _, th := range w.Threads(3, SizeTest, 1) {
			for e.Reset(); th.NextBatch(e); e.Reset() {
			}
		}
	})
}
