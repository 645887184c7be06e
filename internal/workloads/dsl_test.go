package workloads

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/trace"
)

// removeDynamic drops a dynamically registered workload, so a test can
// register a spec under a name another test also uses. The shipped
// registry is append-only by design.
func removeDynamic(name string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := defHashes[name]; ok {
		delete(defHashes, name)
		delete(registry, name)
	}
}

const testSpec = `{
  "name": "dsl-mix",
  "description": "stride/share mix for tests",
  "scale": {"full": 2},
  "phases": [
    {"repeat": 3, "blocks": [
      {"kind": "stride", "count": 64, "wrap": 128, "offset_step": 1, "int_ops": 2, "store": true},
      {"kind": "random", "count": 16, "span": 256, "store_every": 4, "salt_step": 1, "spread": true}
    ]},
    {"blocks": [
      {"kind": "share", "count": 32, "degree": 2, "int_ops": 1}
    ]}
  ]
}`

func TestParseSpecPhased(t *testing.T) {
	sw, err := ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name() != "dsl-mix" {
		t.Fatalf("name = %q", sw.Name())
	}
	if sw.Hash() == 0 {
		t.Fatal("zero definition hash")
	}

	// Determinism and canonicalization: re-parsing yields the same
	// hash; reformatting (whitespace) doesn't move it; a value change
	// does.
	again, err := ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash() != sw.Hash() {
		t.Fatal("hash not deterministic across parses")
	}
	reformatted, err := ParseSpec([]byte(testSpec + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if reformatted.Hash() != sw.Hash() {
		t.Fatal("whitespace moved the definition hash")
	}
	changed, err := ParseSpec([]byte(testSpec[:len(testSpec)-2] + `, "pc_base": "0x7f000000"}` + "\n"))
	if err == nil && changed.Hash() == sw.Hash() {
		t.Fatal("value change did not move the definition hash")
	}

	// Streams are well-formed: equal barrier counts across threads, a
	// deterministic stream per (n, size, seed), and full-size scaling
	// doubles the phase count (scale.full = 2).
	for _, n := range []int{1, 2, 4} {
		ths := sw.Threads(n, SizeTest, 7)
		if len(ths) != n {
			t.Fatalf("n=%d: got %d threads", n, len(ths))
		}
		var barriers []int
		for _, th := range ths {
			b := 0
			for _, batch := range drainBatches(t, th) {
				for _, in := range batch {
					if in.Op == isa.OpSync {
						b++
					}
				}
			}
			barriers = append(barriers, b)
		}
		for tid := 1; tid < n; tid++ {
			if barriers[tid] != barriers[0] {
				t.Fatalf("n=%d: thread %d has %d barriers, thread 0 has %d", n, tid, barriers[tid], barriers[0])
			}
		}
		// 3 instances of phase 0 + 1 of phase 1 at test scale.
		if barriers[0] != 4 {
			t.Fatalf("n=%d: got %d barriers, want 4", n, barriers[0])
		}
	}
	a := drainBatches(t, sw.Threads(2, SizeTest, 7)[1])
	b := drainBatches(t, sw.Threads(2, SizeTest, 7)[1])
	assertSameBatches(t, "dsl-mix", 2, 1, a, b)
	full := drainBatches(t, sw.Threads(2, SizeFull, 7)[0])
	syncs := 0
	for _, batch := range full {
		for _, in := range batch {
			if in.Op == isa.OpSync {
				syncs++
			}
		}
	}
	if syncs != 8 {
		t.Fatalf("full size: got %d barriers, want 8 (scale ×2)", syncs)
	}
}

func TestParseSpecDrift(t *testing.T) {
	src := `{
	  "name": "drifty", "description": "count drift",
	  "phases": [{"repeat": 3, "blocks": [
	    {"kind": "stride", "count": 32, "count_step": 16, "int_ops": 1}
	  ]}]
	}`
	sw, err := ParseSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	// Instances run 32, 48, 64 iterations: loads per phase grow.
	batches := drainBatches(t, sw.Threads(1, SizeTest, 1)[0])
	var loadsPerPhase []int
	loads := 0
	for _, batch := range batches {
		for _, in := range batch {
			switch in.Op {
			case isa.OpLoad:
				loads++
			case isa.OpSync:
				loadsPerPhase = append(loadsPerPhase, loads)
				loads = 0
			}
		}
	}
	want := []int{32, 48, 64}
	if len(loadsPerPhase) != len(want) {
		t.Fatalf("got %d phases, want %d", len(loadsPerPhase), len(want))
	}
	for i, w := range want {
		if loadsPerPhase[i] != w {
			t.Fatalf("phase %d: %d loads, want %d", i, loadsPerPhase[i], w)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad json", `{`},
		{"no name", `{"description": "d", "phases": [{"blocks": [{"kind": "stride", "count": 1}]}]}`},
		{"bad name", `{"name": "Bad Name", "description": "d", "phases": [{"blocks": [{"kind": "stride", "count": 1}]}]}`},
		{"no description", `{"name": "x", "phases": [{"blocks": [{"kind": "stride", "count": 1}]}]}`},
		{"no phases or trace", `{"name": "x", "description": "d"}`},
		{"phases and trace", `{"name": "x", "description": "d", "phases": [{"blocks": [{"kind": "stride", "count": 1}]}], "trace": {"records": [{"proc": 0, "op": "int", "pc": 4}]}}`},
		{"empty phase", `{"name": "x", "description": "d", "phases": [{"blocks": []}]}`},
		{"unknown kind", `{"name": "x", "description": "d", "phases": [{"blocks": [{"kind": "zigzag"}]}]}`},
		{"share degree", `{"name": "x", "description": "d", "phases": [{"blocks": [{"kind": "share", "count": 4, "degree": 1}]}]}`},
		{"random span", `{"name": "x", "description": "d", "phases": [{"blocks": [{"kind": "random", "count": 4}]}]}`},
		{"trace file in memory", `{"name": "x", "description": "d", "trace": {"file": "t.jsonl"}}`},
		{"keys differing only in case", `{"name": "x", "description": "d", "phases": [{"blocks": [{"kind": "stride", "count": -5, "Count": 8}]}]}`},
		{"records and file", `{"name": "x", "description": "d", "trace": {"records": [{"proc": 0, "op": "int", "pc": 4}], "file": "t.jsonl"}}`},
	}
	for _, c := range cases {
		if _, err := ParseSpec([]byte(c.src)); err == nil {
			t.Errorf("%s: wanted an error", c.name)
		}
	}
}

func TestRegisterDynamicLifecycle(t *testing.T) {
	sw, err := ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer removeDynamic(sw.Name())
	if err := sw.Register(); err != nil {
		t.Fatal(err)
	}
	if DefinitionHash(sw.Name()) != sw.Hash() {
		t.Fatal("DefinitionHash does not match")
	}
	if _, err := ByName(sw.Name()); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration.
	if err := sw.Register(); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	// A different definition under the same name is rejected.
	other := *sw
	other.hash = sw.hash ^ 1
	if err := other.Register(); err == nil {
		t.Fatal("conflicting definition registered")
	}
	// Built-in names are protected at registration.
	imp, err := FromTrace("lu", "imposter", []trace.Access{{Proc: 0, Op: "int", PC: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.Register(); err == nil {
		t.Fatal("built-in collision accepted")
	}
	// Built-ins report hash 0.
	if DefinitionHash("lu") != 0 {
		t.Fatal("built-in has a definition hash")
	}
}

// TestFromTraceReplay captures a built-in workload's instruction
// streams as trace records, ingests them, and checks the replay
// reproduces the original streams instruction for instruction —
// including barrier placement — at the capture's processor count.
func TestFromTraceReplay(t *testing.T) {
	const n = 2
	var recs []trace.Access
	var want [][]isa.Inst
	for tid, th := range (FSStencil{}).Threads(n, SizeTest, 11) {
		var flat []isa.Inst
		for _, batch := range drainBatches(t, th) {
			for _, in := range batch {
				flat = append(flat, in)
				recs = append(recs, trace.AccessFromInst(tid, in))
			}
		}
		want = append(want, flat)
	}

	sw, err := FromTrace("captured-fs", "fsstencil capture", recs)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Hash() == 0 {
		t.Fatal("zero hash")
	}
	for tid, th := range sw.Threads(n, SizeTest, 99) {
		var flat []isa.Inst
		for _, batch := range drainBatches(t, th) {
			flat = append(flat, batch...)
		}
		if len(flat) != len(want[tid]) {
			t.Fatalf("proc %d: replay has %d insts, capture had %d", tid, len(flat), len(want[tid]))
		}
		for i := range flat {
			if flat[i] != want[tid][i] {
				t.Fatalf("proc %d inst %d: replay %+v != capture %+v", tid, i, flat[i], want[tid][i])
			}
		}
	}

	// Replaying a 2-proc capture on a 4-node machine folds both trace
	// procs onto distinct threads and remaps homes into range.
	for tid, th := range sw.Threads(4, SizeTest, 0) {
		for _, batch := range drainBatches(t, th) {
			for _, in := range batch {
				if in.Op.IsMem() {
					if home := int(in.Addr >> machine.HomeShift); home < 0 || home >= 4 {
						t.Fatalf("tid %d: home %d out of range", tid, home)
					}
				}
			}
		}
	}

	// Equal barrier counts survive replay on a 1-node machine (both
	// trace procs fold onto thread 0).
	th := sw.Threads(1, SizeTest, 0)[0]
	syncs := 0
	for _, batch := range drainBatches(t, th) {
		for _, in := range batch {
			if in.Op == isa.OpSync {
				syncs++
			}
		}
	}
	if syncs == 0 {
		t.Fatal("replay lost all barriers")
	}
}

// TestFromTraceSpecEquivalence checks the promised identity: a trace
// ingested with FromTrace and the same records written as an inline
// "trace" stanza spec produce the same definition hash.
func TestFromTraceSpecEquivalence(t *testing.T) {
	recs := []trace.Access{
		{Proc: 0, Op: "load", PC: 0x40, Addr: machine.AddrAt(0, 64)},
		{Proc: 0, Op: "int", PC: 0x44, N: 3},
		{Proc: 0, Op: "sync", PC: 0x80},
		{Proc: 0, Op: "store", PC: 0x48, Addr: machine.AddrAt(1, 8)},
		{Proc: 1, Op: "fp", PC: 0x60},
		{Proc: 1, Op: "sync", PC: 0x80},
		{Proc: 1, Op: "branch", PC: 0x64, Taken: true},
	}
	fromAPI, err := FromTrace("tiny-trace", "two-proc toy", recs)
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"name": "tiny-trace", "description": "two-proc toy", "trace": {"records": [
	  {"proc": 0, "op": "load", "pc": 64, "addr": 64},
	  {"proc": 0, "op": "int", "pc": 68, "n": 3},
	  {"proc": 0, "op": "sync", "pc": 128},
	  {"proc": 0, "op": "store", "pc": 72, "addr": ` + fmt.Sprint(machine.AddrAt(1, 8)) + `},
	  {"proc": 1, "op": "fp", "pc": 96},
	  {"proc": 1, "op": "sync", "pc": 128},
	  {"proc": 1, "op": "branch", "pc": 100, "taken": true}
	]}}`
	fromSpec, err := ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if fromAPI.Hash() != fromSpec.Hash() {
		t.Fatalf("hash mismatch: FromTrace %016x vs spec %016x", fromAPI.Hash(), fromSpec.Hash())
	}

	// The int bundle expands to 3 instructions; barrier PC comes from
	// the captured syncs.
	th := fromAPI.Threads(2, SizeTest, 0)
	flat0 := []isa.Inst{}
	for _, b := range drainBatches(t, th[0]) {
		flat0 = append(flat0, b...)
	}
	ints := 0
	for _, in := range flat0 {
		if in.Op == isa.OpInt {
			ints++
		}
	}
	if ints != 3 {
		t.Fatalf("proc 0 has %d int insts, want 3 (bundle expansion)", ints)
	}
	sawSync := false
	for _, in := range flat0 {
		if in.Op == isa.OpSync {
			sawSync = true
			if in.PC != 0x80 {
				t.Fatalf("barrier PC %#x, want captured 0x80", in.PC)
			}
		}
	}
	if !sawSync {
		t.Fatal("no barrier in replay")
	}
}

// TestTraceRejectsProcPastLargestSystem checks both trace front ends
// (FromTrace and a spec's inline trace stanza) reject a proc no system
// has, naming the record, instead of allocating a stream per processor
// up to it.
func TestTraceRejectsProcPastLargestSystem(t *testing.T) {
	for _, tc := range []struct {
		name    string
		proc    int
		wantErr string
	}{
		{"far past", 1_000_000_000_000, "record 1: proc 1000000000000; systems have at most 64 processors"},
		{"first past", 64, "record 1: proc 64;"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := []trace.Access{
				{Proc: 63, Op: "int", PC: 4},
				{Proc: tc.proc, Op: "load", PC: 4096, Addr: 1 << 20},
			}
			_, errAPI := FromTrace("big-proc", "d", recs)
			spec := fmt.Sprintf(`{"name": "big-proc", "description": "d", "trace": {"records": [
			  {"proc": 63, "op": "int", "pc": 4},
			  {"proc": %d, "op": "load", "pc": 4096, "addr": 1048576}]}}`, tc.proc)
			_, errSpec := ParseSpec([]byte(spec))
			for route, err := range map[string]error{"FromTrace": errAPI, "trace stanza": errSpec} {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s: error %v, want one containing %q", route, err, tc.wantErr)
				}
			}
		})
	}
	var full []trace.Access
	for p := 0; p < 64; p++ {
		full = append(full, trace.Access{Proc: p, Op: "int", PC: 4})
	}
	if _, err := FromTrace("max-proc", "d", full); err != nil {
		t.Errorf("a 64-processor trace rejected: %v", err)
	}
}

// TestTraceBoundsExpansion checks both trace front ends (FromTrace and
// a spec's inline trace stanza) reject a trace whose n repeats add more
// than maxRepeatInstrs instructions, naming the record that crosses the
// bound, instead of expanding it out of memory — and accept one that
// reaches the bound exactly. A repeat-free trace with more records than
// the bound, such as a per-instruction capture, is accepted.
func TestTraceBoundsExpansion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		recs    []trace.Access
		wantErr string // empty: the trace must be accepted
	}{
		{"one huge record", []trace.Access{
			{Proc: 0, Op: "int", PC: 4, N: 1_000_000_000_000},
		}, "record 0: n repeats add more than 2097152 instructions"},
		{"max int repeat", []trace.Access{
			{Proc: 0, Op: "load", PC: 4, Addr: 64},
			{Proc: 0, Op: "fp", PC: 8, N: math.MaxInt},
		}, "record 1: n repeats add more than"},
		{"one past the bound", []trace.Access{
			{Proc: 0, Op: "int", PC: 4, N: maxRepeatInstrs},
			{Proc: 0, Op: "sync", PC: 12},
			{Proc: 1, Op: "sync", PC: 12},
			{Proc: 1, Op: "fp", PC: 8, N: 3},
		}, "record 3: n repeats add more than"},
		{"at the bound", []trace.Access{
			{Proc: 0, Op: "int", PC: 4, N: maxRepeatInstrs},
			{Proc: 0, Op: "sync", PC: 12},
			{Proc: 1, Op: "sync", PC: 12},
			{Proc: 1, Op: "fp", PC: 8, N: 2},
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := json.Marshal(tc.recs)
			if err != nil {
				t.Fatal(err)
			}
			spec := fmt.Sprintf(`{"name": "long-trace", "description": "d", "trace": {"records": %s}}`, recs)
			routes := []struct {
				name  string
				build func() (*SpecWorkload, error)
			}{
				{"FromTrace", func() (*SpecWorkload, error) { return FromTrace("long-trace", "d", tc.recs) }},
				{"trace stanza", func() (*SpecWorkload, error) { return ParseSpec([]byte(spec)) }},
			}
			for _, route := range routes {
				_, err := route.build()
				switch {
				case tc.wantErr == "" && err != nil:
					t.Errorf("%s: rejected: %v", route.name, err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Errorf("%s: error %v, want one containing %q", route.name, err, tc.wantErr)
				}
			}
		})
	}
	plain := make([]trace.Access, maxRepeatInstrs+1)
	for i := range plain {
		plain[i] = trace.Access{Proc: i % 2, Op: "int", PC: 4}
	}
	sw, err := FromTrace("plain", "d", plain)
	if err != nil {
		t.Fatalf("a %d-record trace without repeats rejected: %v", len(plain), err)
	}
	got := 0
	e := isa.NewEmitter(4096)
	for _, th := range sw.Threads(2, SizeTest, 1) {
		for e.Reset(); th.NextBatch(e); e.Reset() {
			got += len(e.Take())
		}
	}
	if got != len(plain) {
		t.Errorf("plain trace replays %d instructions, want %d", got, len(plain))
	}
}

func TestFromTraceErrors(t *testing.T) {
	if _, err := FromTrace("x", "d", nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := FromTrace("x", "", []trace.Access{{Proc: 0, Op: "int", PC: 4}}); err == nil {
		t.Error("missing description accepted")
	}
	// Mismatched sync counts.
	if _, err := FromTrace("x", "d", []trace.Access{
		{Proc: 0, Op: "sync", PC: 4},
		{Proc: 1, Op: "int", PC: 8},
	}); err == nil {
		t.Error("mismatched barrier counts accepted")
	}
	// Unknown op.
	if _, err := FromTrace("x", "d", []trace.Access{{Proc: 0, Op: "jmp", PC: 4}}); err == nil {
		t.Error("unknown op accepted")
	}
	// Repeated sync.
	if _, err := FromTrace("x", "d", []trace.Access{{Proc: 0, Op: "sync", PC: 4, N: 2}}); err == nil {
		t.Error("repeated sync accepted")
	}
}
