package workloads

// Trace ingestion: turning an externally captured address trace
// (trace.Access records) into a registered workload. The trace's
// per-processor streams are split at sync records into barrier-
// delimited segments; each segment becomes one IR phase whose Replay
// block re-emits the captured instructions, remapping memory homes
// modulo the run's processor count so a P-proc capture replays on any
// machine size. Syncs themselves are dropped from the streams — the
// Program's own barrier structure reproduces them — which is what lets
// the detectors see the same interval boundaries the capture had.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"dsmphase/internal/coherence"
	"dsmphase/internal/isa"
	"dsmphase/internal/trace"
)

// FromTrace builds a registrable workload that replays an address
// trace. The returned workload's canonical source is a self-contained
// spec with the records inlined, so it hashes and ships exactly like a
// hand-written spec with a "trace" stanza.
func FromTrace(name, desc string, accs []trace.Access) (*SpecWorkload, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if desc == "" {
		return nil, fmt.Errorf("workloads: trace %q: description is required", name)
	}
	return traceWorkload(name, desc, accs)
}

// maxRepeatInstrs bounds the instructions a trace's n repeats add
// beyond one per record. Replay holds the expanded streams in memory
// (16 bytes an instruction, so 32 MiB at the bound), and without it one
// record with a huge n would exhaust memory. A trace without repeats,
// such as a dsmsim -access-trace-out capture, takes memory in
// proportion to its records and is not limited.
const maxRepeatInstrs = 1 << 21

func traceWorkload(name, desc string, recs []trace.Access) (*SpecWorkload, error) {
	segs, barrierPC, err := traceSegments(name, recs)
	if err != nil {
		return nil, err
	}
	procs, syncs := len(segs), len(segs[0])-1
	// Drop a universally empty trailing segment: the capture ended
	// right at a barrier, so the final phase keeps its barrier.
	phases := syncs + 1
	if syncs > 0 {
		empty := true
		for tp := 0; tp < procs && empty; tp++ {
			empty = len(segs[tp][syncs]) == 0
		}
		if empty {
			phases = syncs
		}
	}

	// Canonical source: the equivalent inline-records spec, so a trace
	// ingested via FromTrace and the same records pasted into a .wdl
	// "trace" stanza register as the same definition.
	canon := canonTrace(name, desc, recs)

	nRecs := len(recs)
	sw := &SpecWorkload{
		name: name,
		desc: desc,
		inputSet: func(Size) string {
			return fmt.Sprintf("replayed trace: %d procs, %d records", procs, nRecs)
		},
		src:  canon,
		hash: canonDigest(canon),
		build: func(n int, _ Size) *Program {
			prog := &Program{BarrierPC: barrierPC}
			for s := 0; s < phases; s++ {
				streams := make([][]isa.Inst, procs)
				for tp := 0; tp < procs; tp++ {
					streams[tp] = segs[tp][s]
				}
				prog.Phases = append(prog.Phases, Phase{
					Blocks:    []Block{&Replay{Streams: streams}},
					NoBarrier: s == phases-1 && phases == syncs+1,
				})
			}
			return prog
		},
	}
	return sw, nil
}

// traceSegments validates a trace and splits each trace processor's
// expanded instruction stream at its sync records: segs[tp][s] is trace
// processor tp's stream between syncs s-1 and s. barrierPC is the first
// sync's PC, or a fixed spec PC when the trace has no syncs. A first
// pass sizes every segment, so each is filled in place in one shared
// array.
func traceSegments(name string, recs []trace.Access) ([][][]isa.Inst, uint32, error) {
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("workloads: trace %q has no records", name)
	}
	// sizes[tp][s] counts the instructions of segs[tp][s].
	var sizes [][]int
	total, repeated := 0, 0
	for i, a := range recs {
		if a.Proc < 0 {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: negative proc %d", name, i, a.Proc)
		}
		// One stream is allocated per trace processor up to the largest.
		if a.Proc >= coherence.MaxProcs {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: proc %d; systems have at most %d processors",
				name, i, a.Proc, coherence.MaxProcs)
		}
		for len(sizes) <= a.Proc {
			sizes = append(sizes, []int{0})
		}
		seg := sizes[a.Proc]
		if a.Op == "sync" {
			sizes[a.Proc] = append(seg, 0)
			continue
		}
		extra := max(a.N, 1) - 1
		if extra > maxRepeatInstrs-repeated {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: n repeats add more than %d instructions",
				name, i, maxRepeatInstrs)
		}
		repeated += extra
		seg[len(seg)-1] += extra + 1
		total += extra + 1
	}
	procs := len(sizes)
	segs := make([][][]isa.Inst, procs)
	insts := make([]isa.Inst, total)
	for tp, ss := range sizes {
		segs[tp] = make([][]isa.Inst, len(ss))
		for s, n := range ss {
			segs[tp][s], insts = insts[:0:n], insts[n:]
		}
	}
	var barrierPC uint32
	cur := make([]int, procs) // each trace processor's current segment
	for i, a := range recs {
		in, err := a.Inst()
		if err != nil {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: %w", name, i, err)
		}
		tp := a.Proc
		if in.Op == isa.OpSync {
			if a.N > 1 {
				return nil, 0, fmt.Errorf("workloads: trace %q record %d: sync records cannot repeat", name, i)
			}
			if barrierPC == 0 {
				barrierPC = in.PC
			}
			cur[tp]++
			continue
		}
		seg := &segs[tp][cur[tp]]
		for r := max(a.N, 1); r > 0; r-- {
			*seg = append(*seg, in)
		}
	}
	syncs := len(segs[0]) - 1
	for tp := 1; tp < procs; tp++ {
		if got := len(segs[tp]) - 1; got != syncs {
			return nil, 0, fmt.Errorf("workloads: trace %q: proc %d has %d syncs, proc 0 has %d (barrier counts must match)", name, tp, got, syncs)
		}
	}
	for tp := 0; tp < procs; tp++ {
		if syncs == 0 && len(segs[tp][0]) == 0 {
			return nil, 0, fmt.Errorf("workloads: trace %q: proc %d has no instructions", name, tp)
		}
	}
	if barrierPC == 0 {
		barrierPC = specPCBase + 0xFF00
	}
	return segs, barrierPC, nil
}

// canonTrace writes the canonical source of a validated trace: the
// bytes canonHash makes of the equivalent inline-records spec (sorted
// keys, no whitespace, zero fields left out), appended straight from
// the records into one buffer sized by a first pass. Integers are
// written exactly, where the generic route rounds any above 2^53.
func canonTrace(name, desc string, recs []trace.Access) []byte {
	// canonHash decodes each invalid UTF-8 byte to U+FFFD and
	// re-marshals that rune raw, so the description is converted the
	// same way first.
	if !utf8.ValidString(desc) {
		desc = string([]rune(desc))
	}
	// Marshaling a string cannot fail.
	nameJSON, _ := json.Marshal(name)
	descJSON, _ := json.Marshal(desc)
	size := len(`{"description":,"name":,"trace":{"records":[]}}`) + len(descJSON) + len(nameJSON) + len(recs) - 1
	var scratch [128]byte
	for _, a := range recs {
		size += len(appendRecord(scratch[:0], a))
	}
	b := make([]byte, 0, size)
	b = append(b, `{"description":`...)
	b = append(b, descJSON...)
	b = append(b, `,"name":`...)
	b = append(b, nameJSON...)
	b = append(b, `,"trace":{"records":[`...)
	for i, a := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRecord(b, a)
	}
	return append(b, "]}}"...)
}

// appendRecord appends one record's canonical object. Its op is one of
// the validated mnemonics, so it is never empty and needs no escaping.
func appendRecord(b []byte, a trace.Access) []byte {
	b = append(b, '{')
	if a.Addr != 0 {
		b = append(b, `"addr":`...)
		b = strconv.AppendUint(b, a.Addr, 10)
		b = append(b, ',')
	}
	if a.N != 0 {
		b = append(b, `"n":`...)
		b = strconv.AppendInt(b, int64(a.N), 10)
		b = append(b, ',')
	}
	b = append(b, `"op":"`...)
	b = append(b, a.Op...)
	b = append(b, '"')
	if a.PC != 0 {
		b = append(b, `,"pc":`...)
		b = strconv.AppendUint(b, uint64(a.PC), 10)
	}
	if a.Proc != 0 {
		b = append(b, `,"proc":`...)
		b = strconv.AppendInt(b, int64(a.Proc), 10)
	}
	if a.Taken {
		b = append(b, `,"taken":true`...)
	}
	return append(b, '}')
}
