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
// (24 bytes an instruction, so 48 MiB at the bound), and without it one
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
	src, err := json.Marshal(rawSpec{
		Name:        name,
		Description: desc,
		Trace:       &rawTrace{Records: recs},
	})
	if err != nil {
		return nil, fmt.Errorf("workloads: trace %q: %w", name, err)
	}
	canon, hash, err := canonHash(src)
	if err != nil {
		return nil, err
	}

	nRecs := len(recs)
	sw := &SpecWorkload{
		name: name,
		desc: desc,
		inputSet: func(Size) string {
			return fmt.Sprintf("replayed trace: %d procs, %d records", procs, nRecs)
		},
		src:  canon,
		hash: hash,
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
// sync's PC, or a fixed spec PC when the trace has no syncs.
func traceSegments(name string, recs []trace.Access) ([][][]isa.Inst, uint32, error) {
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("workloads: trace %q has no records", name)
	}
	procs, repeated := 0, 0
	for i, a := range recs {
		if a.Proc < 0 {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: negative proc %d", name, i, a.Proc)
		}
		// One stream is allocated per trace processor up to the largest.
		if a.Proc >= coherence.MaxProcs {
			return nil, 0, fmt.Errorf("workloads: trace %q record %d: proc %d; systems have at most %d processors",
				name, i, a.Proc, coherence.MaxProcs)
		}
		if a.Proc >= procs {
			procs = a.Proc + 1
		}
		if a.Op != "sync" {
			extra := max(a.N, 1) - 1
			if extra > maxRepeatInstrs-repeated {
				return nil, 0, fmt.Errorf("workloads: trace %q record %d: n repeats add more than %d instructions",
					name, i, maxRepeatInstrs)
			}
			repeated += extra
		}
	}
	segs := make([][][]isa.Inst, procs)
	var barrierPC uint32
	for i := range segs {
		segs[i] = make([][]isa.Inst, 1)
	}
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
			segs[tp] = append(segs[tp], nil)
			continue
		}
		rep := max(a.N, 1)
		last := len(segs[tp]) - 1
		for r := 0; r < rep; r++ {
			segs[tp][last] = append(segs[tp][last], in)
		}
	}
	syncs := len(segs[0]) - 1
	for tp := 1; tp < procs; tp++ {
		if got := len(segs[tp]) - 1; got != syncs {
			return nil, 0, fmt.Errorf("workloads: trace %q: proc %d has %d syncs, proc 0 has %d (barrier counts must match)", name, tp, got, syncs)
		}
	}
	for tp := 0; tp < procs; tp++ {
		total := 0
		for _, seg := range segs[tp] {
			total += len(seg)
		}
		if total == 0 && syncs == 0 {
			return nil, 0, fmt.Errorf("workloads: trace %q: proc %d has no instructions", name, tp)
		}
	}
	if barrierPC == 0 {
		barrierPC = specPCBase + 0xFF00
	}
	return segs, barrierPC, nil
}
