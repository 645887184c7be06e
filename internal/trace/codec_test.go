package trace

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dsmphase/internal/core"
)

// edgeFloats are the values where encoding/json's float format switches
// or is easy to get wrong.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.5e-10,
	1e20, 1e21, -1e21, 999999999999999900000, 1e100,
	5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
	0.1, 1.0 / 3, 123456789.125, -2.5,
}

// randomFloat draws an edge value, a uniform value or any finite bit
// pattern.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randomInterval(rng *rand.Rand, proc, index, bbvLen int) core.IntervalSignature {
	sig := core.IntervalSignature{
		Proc: proc, Index: index,
		DDS: randomFloat(rng), RawDDS: randomFloat(rng),
		PhaseID:      rng.Intn(5) - 1,
		Instructions: rng.Uint64(), Cycles: rng.Uint64() >> rng.Intn(64),
		LocalAccesses: uint64(rng.Intn(1000)), RemoteAccesses: math.MaxUint64,
	}
	if bbvLen >= 0 {
		sig.BBV = make([]float64, bbvLen)
		for i := range sig.BBV {
			sig.BBV[i] = randomFloat(rng)
		}
	}
	for i := range sig.WSS {
		switch rng.Intn(3) {
		case 0:
			sig.WSS[i] = math.MaxUint64
		case 1:
			sig.WSS[i] = rng.Uint64()
		}
	}
	return sig
}

// TestWritersMatchEncodingJSON is the writers' property test: for
// random records over the edge values (float format switches, -0,
// subnormals, MaxUint64 words, PhaseID -1, ops encoding/json escapes,
// nil and empty BBVs) the typed writers write encoding/json's bytes.
func TestWritersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := []string{"int", "fp", "load", "store", "branch", "sync",
		"<jmp>&", "", "\xff", "é", " ", `q"\`, "\x01"}
	for trial := 0; trial < 200; trial++ {
		accs := make([]Access, rng.Intn(50))
		for i := range accs {
			accs[i] = Access{
				Proc: rng.Intn(130) - 2, Op: ops[rng.Intn(len(ops))], PC: rng.Uint32(),
				Taken: rng.Intn(2) == 0, N: rng.Intn(4) - 1,
			}
			if rng.Intn(2) == 0 {
				accs[i].Addr = rng.Uint64() >> rng.Intn(64)
			}
		}
		accs = append(accs, Access{Proc: math.MaxInt, PC: math.MaxUint32, Addr: math.MaxUint64, N: math.MinInt})
		var got, want bytes.Buffer
		if err := WriteAccessJSONL(&got, accs); err != nil {
			t.Fatal(err)
		}
		if err := RefWriteAccessJSONL(&want, accs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("access trial %d: typed writer\n%s\nencoding/json\n%s", trial, got.Bytes(), want.Bytes())
		}

		bbvLen := rng.Intn(20) - 1 // -1 writes a nil BBV
		sigs := make([]core.IntervalSignature, rng.Intn(30))
		for i := range sigs {
			sigs[i] = randomInterval(rng, i%3, i/3, bbvLen)
		}
		got.Reset()
		want.Reset()
		if err := WriteJSONL(&got, sigs); err != nil {
			t.Fatal(err)
		}
		if err := RefWriteJSONL(&want, sigs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("interval trial %d: typed writer\n%s\nencoding/json\n%s", trial, got.Bytes(), want.Bytes())
		}
	}
}

// TestWriteJSONLRejectsNonFinite checks that a NaN or infinite value
// fails with encoding/json's error, naming the interval.
func TestWriteJSONLRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*core.IntervalSignature){
			"bbv":     func(s *core.IntervalSignature) { s.BBV[1] = bad },
			"dds":     func(s *core.IntervalSignature) { s.DDS = bad },
			"raw_dds": func(s *core.IntervalSignature) { s.RawDDS = bad },
		} {
			recs := sample()
			set(&recs[2])
			var got, want bytes.Buffer
			err := WriteJSONL(&got, recs)
			wantErr := RefWriteJSONL(&want, recs)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s = %v: error %v, want %v", field, bad, err, wantErr)
			}
			if !strings.Contains(err.Error(), "interval 1/0") {
				t.Errorf("%s = %v: error %q does not name interval 1/0", field, bad, err)
			}
		}
	}
}

// TestFastPathTakesWriterOutput checks that the schema-fixed parser
// takes every line the writers produce, the committed capture's lines
// (with their explicit "taken":false) and json.dumps-style spacing —
// falling back would still decode them, only slower.
func TestFastPathTakesWriterOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	wss := `"wss": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 18446744073709551615]`
	buf.WriteString(`{"proc": 2, "index": 0, "bbv": [1e-07, -0.0, 2.5E+3], ` + wss + `, "dds": 1.5, "phase_id": -1}` + "\n")
	buf.WriteString(`{"index":0,"proc":3,"bbv":[],` + wss + "}\r\n")
	var s intervalScratch
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && !s.parse(line, &jsonRecord{}) {
			t.Errorf("fast path left interval line to encoding/json: %s", line)
		}
	}

	capture, err := os.ReadFile("../../examples/trace_ingest/pingpong_trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	capture = append(capture, ` {"proc": 1, "op": "branch", "pc": 4112, "taken": false, "n": 0, "addr": 0} `+"\n"...)
	sc := bufio.NewScanner(bytes.NewReader(capture))
	for sc.Scan() {
		if !parseAccess(sc.Bytes(), &Access{}) {
			t.Errorf("fast path left access line to encoding/json: %s", sc.Bytes())
		}
	}
}

// TestEmptyBBVIsNotNil pins encoding/json's distinction the fast path
// keeps: "bbv":[] decodes to an empty slice, a missing or null bbv to
// nil.
func TestEmptyBBVIsNotNil(t *testing.T) {
	wss := `"wss":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for stream, wantNil := range map[string]bool{
		`{"proc":0,"index":0,"bbv":[],` + wss + `}`:   false,
		`{"proc":0,"index":0,` + wss + `}`:            true,
		`{"proc":0,"index":0,"bbv":null,` + wss + `}`: true,
	} {
		recs, err := ReadJSONL(strings.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		if got := recs[0].BBV == nil; got != wantNil || len(recs[0].BBV) != 0 {
			t.Errorf("%s: BBV = %#v, want nil %v", stream, recs[0].BBV, wantNil)
		}
	}
}
