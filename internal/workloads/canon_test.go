package workloads

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/rng"
	"dsmphase/internal/trace"
)

// legacyCanonTrace is the canonical source and definition hash the
// generic route gave a trace before the typed encoder: marshal the
// inline-records spec, decode it into a float64-valued tree, strip the
// zero scalars, re-marshal and fold the bytes. It is the oracle the
// typed encoder must match for every trace whose integers are below
// 2^53.
func legacyCanonTrace(t *testing.T, name, desc string, recs []trace.Access) ([]byte, uint64) {
	t.Helper()
	src, err := json.Marshal(rawSpec{Name: name, Description: desc, Trace: &rawTrace{Records: recs}})
	if err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(src, &generic); err != nil {
		t.Fatal(err)
	}
	var strip func(v any) any
	strip = func(v any) any {
		switch v := v.(type) {
		case map[string]any:
			out := map[string]any{}
			for k, e := range v {
				switch e := strip(e).(type) {
				case nil:
				case bool:
					if e {
						out[k] = e
					}
				case float64:
					if e != 0 {
						out[k] = e
					}
				case string:
					if e != "" {
						out[k] = e
					}
				default:
					out[k] = e
				}
			}
			return out
		case []any:
			for i, e := range v {
				v[i] = strip(e)
			}
		}
		return v
	}
	canon, err := json.Marshal(strip(generic))
	if err != nil {
		t.Fatal(err)
	}
	h := rng.Hash64(uint64(len(canon)))
	for _, b := range canon {
		h = rng.Hash64(h ^ uint64(b))
	}
	return canon, h
}

// randomTrace builds a valid trace with in-range fields: up to 64
// processors with equal sync counts, every op, and zero and non-zero
// pc, addr, n and taken.
func randomTrace(r *rand.Rand) []trace.Access {
	ops := []string{"int", "fp", "load", "store", "branch"}
	procs := 1 + r.IntN(4)
	if r.IntN(8) == 0 {
		procs = 1 + r.IntN(64)
	}
	syncs := r.IntN(3)
	maybe := func(v uint64) uint64 { return v * uint64(min(r.IntN(3), 1)) }
	streams := make([][]trace.Access, procs)
	for p := range streams {
		for s := 0; s <= syncs; s++ {
			for k := 1 + r.IntN(6); k > 0; k-- {
				a := trace.Access{
					Proc:  p,
					Op:    ops[r.IntN(len(ops))],
					PC:    uint32(maybe(uint64(r.Uint32()))),
					Addr:  maybe(r.Uint64N(1 << 53)),
					Taken: r.IntN(2) == 0,
					N:     int(maybe(uint64(r.IntN(40)+1))) - 3*r.IntN(2),
				}
				streams[p] = append(streams[p], a)
			}
			if s < syncs {
				streams[p] = append(streams[p], trace.Access{Proc: p, Op: "sync", PC: uint32(maybe(0x80)), N: r.IntN(2)})
			}
		}
	}
	// Interleave the processors' streams at random, keeping each in order.
	var recs []trace.Access
	for len(streams) > 0 {
		i := r.IntN(len(streams))
		recs = append(recs, streams[i][0])
		if streams[i] = streams[i][1:]; len(streams[i]) == 0 {
			streams = slices.Delete(streams, i, i+1)
		}
	}
	return recs
}

// TestCanonTraceMatchesGeneric pins the typed encoder to the generic
// route it replaced: on hundreds of random traces with in-range fields
// (and descriptions that need escaping, invalid UTF-8 included), FromTrace's
// canonical source and hash equal the generic route's byte for byte.
func TestCanonTraceMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 53))
	descs := []string{"d", "a <b> & \"c\"\n\t\\", "caf\u00e9 \u2028 \U0001F600", "bad \xff\xfe utf-8 \xe2\x82", "\ufffd"}
	for i := 0; i < 500; i++ {
		recs := randomTrace(r)
		desc := descs[i%len(descs)]
		sw, err := FromTrace("prop-trace", desc, recs)
		if err != nil {
			t.Fatalf("trace %d rejected: %v", i, err)
		}
		canon, hash := legacyCanonTrace(t, "prop-trace", desc, recs)
		if !bytes.Equal(sw.Source(), canon) {
			t.Fatalf("trace %d: typed source\n%s\nwant generic\n%s", i, sw.Source(), canon)
		}
		if sw.Hash() != hash {
			t.Fatalf("trace %d: typed hash %016x, generic %016x", i, sw.Hash(), hash)
		}
	}
}

// threadStreams drains a workload's per-thread instruction streams.
func threadStreams(t *testing.T, w Workload, n int) [][]isa.Inst {
	t.Helper()
	var out [][]isa.Inst
	for _, th := range w.Threads(n, SizeTest, 1) {
		var flat []isa.Inst
		for _, batch := range drainBatches(t, th) {
			flat = append(flat, batch...)
		}
		out = append(out, flat)
	}
	return out
}

// reparse checks that a workload's canonical source defines the same
// workload: it re-parses to the same source and hash and emits the same
// per-thread instruction streams.
func reparse(t *testing.T, sw *SpecWorkload) {
	t.Helper()
	again, err := ParseSpec(sw.Source())
	if err != nil {
		t.Fatalf("canonical source rejected: %v\n%s", err, sw.Source())
	}
	if !bytes.Equal(again.Source(), sw.Source()) || again.Hash() != sw.Hash() {
		t.Fatalf("re-parse moved the definition: %016x %s\nwant %016x %s", again.Hash(), again.Source(), sw.Hash(), sw.Source())
	}
	for _, n := range []int{1, 2} {
		want, got := threadStreams(t, sw, n), threadStreams(t, again, n)
		for tid := range want {
			if !slices.Equal(got[tid], want[tid]) {
				t.Fatalf("%d threads: thread %d's re-parsed stream differs", n, tid)
			}
		}
	}
}

// TestTraceLargeIntegersRoundTrip checks that integers above 2^53
// survive a trace's canonical source exactly: the source re-parses to
// the very records FromTrace took and to the same instruction streams.
// A float64 would merge the two lines above 2^60 into 2^60 and turn
// MaxUint64 into a number no uint64 holds.
func TestTraceLargeIntegersRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []trace.Access
	}{
		{"lines above 2^60", []trace.Access{
			{Proc: 0, Op: "load", PC: 4, Addr: 1<<60 + 32},
			{Proc: 0, Op: "store", PC: 8, Addr: 1<<60 + 96},
			{Proc: 1, Op: "load", PC: 4, Addr: 1<<60 + 96},
		}},
		{"MaxUint64", []trace.Access{
			{Proc: 0, Op: "load", PC: 4, Addr: math.MaxUint64},
			{Proc: 0, Op: "int", PC: 8, N: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := FromTrace("big-addr", "d", tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			var spec rawSpec
			if err := json.Unmarshal(sw.Source(), &spec); err != nil {
				t.Fatalf("canonical source does not decode: %v\n%s", err, sw.Source())
			}
			if !slices.Equal(spec.Trace.Records, tc.recs) {
				t.Fatalf("canonical records %+v, want %+v", spec.Trace.Records, tc.recs)
			}
			reparse(t, sw)
		})
	}
}

// TestTraceHashSeparatesLargeAddrs checks that two traces differing
// only in an address above 2^53 are two definitions, not one cache
// entry.
func TestTraceHashSeparatesLargeAddrs(t *testing.T) {
	var hashes []uint64
	for _, addr := range []uint64{1<<60 + 32, 1<<60 + 96} {
		sw, err := FromTrace("big-addr", "d", []trace.Access{{Proc: 0, Op: "load", PC: 4, Addr: addr}})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, sw.Hash())
	}
	if hashes[0] == hashes[1] {
		t.Fatalf("traces differing only in an address above 2^60 share hash %016x", hashes[0])
	}
}

// TestSpecLargeSaltRoundTrip checks that a hand-written spec's integer
// above 2^53 survives its canonical source exactly, so a worker that
// parses the shipped source emits the coordinator's streams. It also
// checks the number rules: small integers and non-integer literals keep
// their float64 text, and -0 is stripped as a zero default.
func TestSpecLargeSaltRoundTrip(t *testing.T) {
	const spec = `{"name": "big-salt", "description": "d", "extra": [1.50, 1e2, 9007199254740993.0, -0, -9007199254740993],
	  "phases": [{"repeat": -0, "blocks": [{"kind": "random", "count": 64, "span": 4096, "salt": %s}]}]}`
	hashes := map[uint64]bool{}
	for _, salt := range []string{"9007199254740993", "9007199254740992", "18446744073709551615"} {
		sw, err := ParseSpec([]byte(strings.Replace(spec, "%s", salt, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(sw.Source(), []byte(`"salt":`+salt+`,`)) {
			t.Fatalf("canonical source lost salt %s:\n%s", salt, sw.Source())
		}
		if want := `"extra":[1.5,100,9007199254740992,-0,-9007199254740993]`; !bytes.Contains(sw.Source(), []byte(want)) {
			t.Fatalf("canonical source does not hold %s:\n%s", want, sw.Source())
		}
		if bytes.Contains(sw.Source(), []byte(`"repeat"`)) {
			t.Fatalf("repeat -0 not stripped as a zero default:\n%s", sw.Source())
		}
		reparse(t, sw)
		if hashes[sw.Hash()] {
			t.Fatalf("salt %s shares hash %016x with another salt", salt, sw.Hash())
		}
		hashes[sw.Hash()] = true
	}
}

// captureTrace records a built-in workload's full instruction streams
// as trace records, the way dsmsim -access-trace-out does.
func captureTrace(w Workload, procs int) []trace.Access {
	var recs []trace.Access
	e := isa.NewEmitter(4096)
	for tid, th := range w.Threads(procs, SizeTest, 1) {
		for e.Reset(); th.NextBatch(e); e.Reset() {
			for _, in := range e.Take() {
				recs = append(recs, trace.AccessFromInst(tid, in))
			}
		}
	}
	return recs
}

// BenchmarkFromTrace ingests a per-instruction capture of test-size
// fsstencil on 2 processors (98,368 records) and reports the bytes
// allocated per record.
func BenchmarkFromTrace(b *testing.B) {
	recs := captureTrace(FSStencil{}, 2)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		if _, err := FromTrace("fsstencil-capture", "test-size fsstencil on 2 processors", recs); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(len(recs)), "B/record")
	b.ReportMetric(float64(len(recs)), "records")
}
