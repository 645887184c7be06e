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
// oracles: the typed reader agrees with the encoding/json reference
// reader on every input (both reject it with the same error, or both
// accept the same records); the typed writer writes the reference
// writer's bytes; and accepted records survive an encode/decode round
// trip unchanged.

// sameOutcome fails t unless got and want are the same decode outcome.
func sameOutcome[T any](t *testing.T, got []T, err error, want []T, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("typed reader error %v, reference reader error %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("typed reader and reference reader disagree:\n%+v\n%+v", got, want)
	}
}

// fallbackSeeds are valid JSON the fast path leaves to encoding/json,
// and lines it must take despite their spacing.
var fallbackSeeds = []string{
	`{"proc":0,"op":"int","pc":4,"Proc":1}`,
	`{"proc":0,"op":"int","pc":4,"proc":1}`,
	`{"proc":0,"op":"int","pc":4,"extra":[1,{"a":null}]}`,
	`{"proc":0,"op":"int","pc":4,"addr":null}`,
	`{"proc":0,"op":"\u0069nt","pc":4}`,
	`{"proc":0,"op":"int","pc":1e2}`,
	`{"proc":0,"op":"int","pc":4}{"proc":1,"op":"fp","pc":8}`,
	"{\"proc\":0,\n\"op\":\"int\",\"pc\":4}",
	` { "proc" : 0 , "op" : "branch" , "pc" : 4 , "taken" : false } `,
	"\r\n\t{\"pc\":4,\"op\":\"sync\",\"proc\":1}\r\n\n",
	`{"proc":-0,"op":"int","pc":4,"n":-1}`,
	`{"proc":0,"op":"<jmp>","pc":4}`,
}

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
	for _, s := range fallbackSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadAccessJSONL(bytes.NewReader(data))
		want, wantErr := trace.RefReadAccessJSONL(bytes.NewReader(data))
		sameOutcome(t, recs, err, want, wantErr)
		if err != nil {
			return
		}
		var buf, ref bytes.Buffer
		if err := trace.WriteAccessJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		if err := trace.RefWriteAccessJSONL(&ref, recs); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("typed writer wrote\n%s\nreference writer (error %v) wrote\n%s", buf.Bytes(), err, ref.Bytes())
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
	wss := `"wss":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for _, s := range []string{
		`{"proc":0,"index":0,"bbv":[],` + wss + `}`,
		`{"proc":0,"index":0,"bbv":null,` + wss + `}`,
		`{"proc":0,"index":0,` + wss + `,"dds":1e400}`,
		`{"proc":0,"index":0,` + wss + `,"dds":-0.0,"raw_dds":1E-7,"phase_id":-1}`,
		`{"proc":0,"index":0,"bbv":[0.25,0.75],` + wss + `,"dds":1.1,"raw_dds":1100000,"phase_id":-1,"instructions":1000,"cycles":2500,"local_accesses":80,"remote_accesses":20}`,
		`{"proc":0,"index":0,"bbv":[1],` + wss + `,"dds":1,"phase_id":"x","cycles":7}`,
		` { "index" : 0 , ` + wss + ` , "proc" : 1 , "bbv" : [ 0.5 , 1e21 ] } `,
		`{"proc":0,"index":1,` + wss + `}`,
		`{"proc":0,"index":0,` + wss + `,"Index":0}`,
		`{"proc":0,"index":0,"wss":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,18446744073709551616]}`,
	} {
		f.Add([]byte(s + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := trace.ReadJSONL(bytes.NewReader(data))
		want, wantErr := trace.RefReadJSONL(bytes.NewReader(data))
		sameOutcome(t, recs, err, want, wantErr)
		if err != nil {
			return
		}
		var buf, ref bytes.Buffer
		if err := trace.WriteJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		if err := trace.RefWriteJSONL(&ref, recs); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("typed writer wrote\n%s\nreference writer (error %v) wrote\n%s", buf.Bytes(), err, ref.Bytes())
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
