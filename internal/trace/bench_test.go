package trace_test

import (
	"bytes"
	"io"
	"os"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/harness"
	"dsmphase/internal/trace"
	"dsmphase/internal/workloads"
)

// The codec's layer series: each benchmark moves one realistic stream
// through a typed reader or writer and reports its bytes per second.

func accessCapture(b *testing.B) []byte {
	data, err := os.ReadFile("../../examples/trace_ingest/pingpong_trace.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// intervalRecording is the JSONL recording of a short lu simulation,
// the trace a shard artifact carries.
func intervalRecording(b *testing.B) []byte {
	m, _, err := harness.Simulate(harness.RunConfig{
		Workload: "lu", Size: workloads.SizeTest, Procs: 4, IntervalInstructions: 10_000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var recs []core.IntervalSignature
	for _, rs := range m.RecordsByProc() {
		recs = append(recs, rs...)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, recs); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadAccessJSONL(b *testing.B) {
	data := accessCapture(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadAccessJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteAccessJSONL(b *testing.B) {
	data := accessCapture(b)
	recs, err := trace.ReadAccessJSONL(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteAccessJSONL(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadJSONL(b *testing.B) {
	data := intervalRecording(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	data := intervalRecording(b)
	recs, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteJSONL(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}
