package trace_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/harness"
	"dsmphase/internal/trace"
	"dsmphase/internal/workloads"
)

// The trace decoders read bytes the process did not write. Their fuzz
// oracle: an input may be rejected with an error but never panic, and
// an accepted input decodes to records that survive an encode/decode
// round trip unchanged.

// FuzzReadAccessJSONL fuzzes the address-trace reader, seeded with the
// committed ping-pong capture.
func FuzzReadAccessJSONL(f *testing.F) {
	pingpong, err := os.ReadFile("../../examples/trace_ingest/pingpong_trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pingpong)
	f.Add(pingpong[:bytes.IndexByte(pingpong, '\n')+1])
	f.Add([]byte(`{"proc":1000000000000,"op":"load","pc":4096,"addr":1048576}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadAccessJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteAccessJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		again, err := trace.ReadAccessJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded records rejected: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", recs, again)
		}
	})
}

// FuzzReadJSONL fuzzes the interval-signature reader, seeded with the
// recording of a short simulation.
func FuzzReadJSONL(f *testing.F) {
	m, _, err := harness.Simulate(harness.RunConfig{
		Workload: "lu", Size: workloads.SizeTest, Procs: 2, IntervalInstructions: 20_000, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var recs []core.IntervalSignature
	for _, rs := range m.RecordsByProc() {
		recs = append(recs, rs...)
	}
	var seed bytes.Buffer
	if err := trace.WriteJSONL(&seed, recs); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:bytes.IndexByte(seed.Bytes(), '\n')+1])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		again, err := trace.ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded records rejected: %v", err)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", recs, again)
		}
	})
}
