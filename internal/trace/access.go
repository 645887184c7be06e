package trace

// Address-trace records: the per-instruction capture format the
// workload layer's trace-ingestion front end consumes. Where the
// interval-signature formats in trace.go serialize what the detectors
// SAW, Access serializes what the processors DID — one record per
// committed instruction, the shape an external simulator or binary
// instrumentation tool can produce. workloads.FromTrace turns a stream
// of these into a registered workload that replays through the same
// machinery as the synthetic generators.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dsmphase/internal/coherence"
	"dsmphase/internal/isa"
)

// Access is one event of an externally captured per-processor
// instruction trace.
type Access struct {
	// Proc is the capturing processor (0-based, contiguous).
	Proc int `json:"proc"`
	// Op is the instruction class mnemonic: int, fp, load, store,
	// branch or sync.
	Op string `json:"op"`
	// PC is the static instruction address.
	PC uint32 `json:"pc"`
	// Addr is the effective byte address (loads and stores).
	Addr uint64 `json:"addr,omitempty"`
	// Taken is the branch outcome (branches).
	Taken bool `json:"taken,omitempty"`
	// N repeats the record (int/fp bundles); 0 means 1.
	N int `json:"n,omitempty"`
}

// Inst converts the record to the machine's instruction form.
func (a Access) Inst() (isa.Inst, error) {
	var op isa.Op
	switch a.Op {
	case "int":
		op = isa.OpInt
	case "fp":
		op = isa.OpFP
	case "load":
		op = isa.OpLoad
	case "store":
		op = isa.OpStore
	case "branch":
		op = isa.OpBranch
	case "sync":
		op = isa.OpSync
	default:
		return isa.Inst{}, fmt.Errorf("trace: unknown op %q", a.Op)
	}
	return isa.Inst{PC: a.PC, Addr: a.Addr, Op: op, Taken: a.Taken}, nil
}

// AccessFromInst converts a machine instruction back to a trace record
// (the capture direction — cmd/dsmsim's -access-trace-out uses it).
func AccessFromInst(proc int, in isa.Inst) Access {
	a := Access{Proc: proc, Op: in.Op.String(), PC: in.PC}
	if in.Op.IsMem() {
		a.Addr = in.Addr
	}
	if in.Op == isa.OpBranch {
		a.Taken = in.Taken
	}
	return a
}

// WriteAccessJSONL writes one JSON object per access record.
func WriteAccessJSONL(w io.Writer, recs []Access) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encoding access %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadAccessJSONL reads a stream written by WriteAccessJSONL. Every
// record's opcode is validated, and a proc must lie in [0,
// coherence.MaxProcs): the workload layer allocates one stream per
// processor up to the largest. Addresses and repeat counts are taken
// as-is (the workload layer validates structure).
func ReadAccessJSONL(r io.Reader) ([]Access, error) {
	var out []Access
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var a Access
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding access %d: %w", len(out), err)
		}
		if _, err := a.Inst(); err != nil {
			return nil, fmt.Errorf("trace: access %d: %w", len(out), err)
		}
		if a.Proc < 0 {
			return nil, fmt.Errorf("trace: access %d has negative proc %d", len(out), a.Proc)
		}
		if a.Proc >= coherence.MaxProcs {
			return nil, fmt.Errorf("trace: access %d has proc %d; systems have at most %d processors",
				len(out), a.Proc, coherence.MaxProcs)
		}
		if a.N < 0 {
			return nil, fmt.Errorf("trace: access %d has negative repeat %d", len(out), a.N)
		}
		out = append(out, a)
	}
}
