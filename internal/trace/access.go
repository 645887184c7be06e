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
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

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

// WriteAccessJSONL writes one JSON object per access record, the bytes
// encoding/json writes for Access.
func WriteAccessJSONL(w io.Writer, recs []Access) error {
	return writeJSONL(w, recs, appendAccess)
}

func appendAccess(b []byte, a *Access) ([]byte, error) {
	b = append(b, `{"proc":`...)
	b = strconv.AppendInt(b, int64(a.Proc), 10)
	b = append(b, `,"op":`...)
	if _, ok := mnemonic(a.Op); ok {
		b = append(b, '"')
		b = append(b, a.Op...)
		b = append(b, '"')
	} else {
		// Any other string is escaped as encoding/json escapes it (HTML
		// characters, invalid UTF-8); marshaling a string cannot fail.
		q, _ := json.Marshal(a.Op)
		b = append(b, q...)
	}
	b = append(b, `,"pc":`...)
	b = strconv.AppendUint(b, uint64(a.PC), 10)
	if a.Addr != 0 {
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, a.Addr, 10)
	}
	if a.Taken {
		b = append(b, `,"taken":true`...)
	}
	if a.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(a.N), 10)
	}
	return append(b, "}\n"...), nil
}

// ReadAccessJSONL reads a stream written by WriteAccessJSONL, or any
// JSONL stream of Access objects encoding/json decodes. Every record's
// opcode is validated, and a proc must lie in [0, coherence.MaxProcs):
// the workload layer allocates one stream per processor up to the
// largest. Addresses and repeat counts are taken as-is (the workload
// layer validates structure).
func ReadAccessJSONL(r io.Reader) ([]Access, error) {
	return readJSONL(r, "access", parseAccess, func(i int, a *Access) (Access, error) {
		return *a, checkAccess(i, a)
	})
}

// checkAccess validates record i for either decode path.
func checkAccess(i int, a *Access) error {
	if _, err := a.Inst(); err != nil {
		return fmt.Errorf("trace: access %d: %w", i, err)
	}
	if a.Proc < 0 {
		return fmt.Errorf("trace: access %d has negative proc %d", i, a.Proc)
	}
	if a.Proc >= coherence.MaxProcs {
		return fmt.Errorf("trace: access %d has proc %d; systems have at most %d processors",
			i, a.Proc, coherence.MaxProcs)
	}
	if a.N < 0 {
		return fmt.Errorf("trace: access %d has negative repeat %d", i, a.N)
	}
	return nil
}

// parseAccess is the fast path for one line: keys are Access's tags,
// each at most once, in any order, and op is one of the six mnemonics
// (any other op string is left to encoding/json and then rejected).
func parseAccess(line []byte, a *Access) bool {
	p := lineParser{b: line}
	return p.object(func(key []byte) (uint, bool) {
		var ok bool
		switch string(key) {
		case "proc":
			a.Proc, ok = p.int()
			return 1 << 0, ok
		case "op":
			a.Op, ok = p.op()
			return 1 << 1, ok
		case "pc":
			var pc uint64
			pc, ok = p.uint(math.MaxUint32)
			a.PC = uint32(pc)
			return 1 << 2, ok
		case "addr":
			a.Addr, ok = p.uint(math.MaxUint64)
			return 1 << 3, ok
		case "taken":
			a.Taken, ok = p.bool()
			return 1 << 4, ok
		case "n":
			a.N, ok = p.int()
			return 1 << 5, ok
		}
		return 0, false
	})
}

// mnemonics are the op names Inst accepts.
var mnemonics = [...]string{"int", "fp", "load", "store", "branch", "sync"}

// mnemonic returns the element of mnemonics equal to s, so a decoded
// record's op shares it rather than allocating.
func mnemonic(s string) (string, bool) {
	for _, m := range mnemonics {
		if s == m {
			return m, true
		}
	}
	return "", false
}

// op reads a string holding one of the mnemonics.
func (p *lineParser) op() (string, bool) {
	s, ok := p.str()
	if !ok {
		return "", false
	}
	return mnemonic(string(s))
}
