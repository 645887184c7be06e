// Package isa defines the minimal instruction representation consumed by
// the DSM machine model. Workload generators emit streams of Inst values;
// the machine charges timing per instruction and feeds branch and memory
// instructions to the phase-detection hardware.
//
// The representation deliberately carries only what the paper's detectors
// observe: an opcode class, a static PC (for BBV hashing), a data address
// (for home-node classification), and a taken bit for branches (for the
// gshare predictor).
package isa

import "fmt"

// Op is the instruction class. The timing model charges different
// functional units per class; the detectors only look at Branch
// (BBV accumulator) and Load/Store (DDV frequency matrix).
type Op uint8

const (
	// OpInt is a simple integer ALU operation.
	OpInt Op = iota
	// OpFP is a floating-point operation (uses an FPU slot).
	OpFP
	// OpLoad is a memory read.
	OpLoad
	// OpStore is a memory write.
	OpStore
	// OpBranch is a conditional branch; Taken records its outcome.
	OpBranch
	// OpSync is a synchronization instruction (barrier arrival). Sync
	// instructions are excluded from interval instruction counts, per the
	// paper ("committed non-synchronization instructions").
	OpSync
	numOps
)

// NumOps is the number of distinct instruction classes.
const NumOps = int(numOps)

// String returns a short mnemonic for the opcode.
func (o Op) String() string {
	switch o {
	case OpInt:
		return "int"
	case OpFP:
		return "fp"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpSync:
		return "sync"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsMem reports whether the opcode accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Inst is one dynamic instruction.
//
// Fields are ordered widest first so an Inst packs into 16 bytes (a
// PC-first layout pads to 24); emitter buffers and trace-replay segments
// hold millions of them.
type Inst struct {
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// PC is the static instruction address. Workloads assign stable,
	// distinct PCs to their static code points so the BBV hash sees a
	// realistic basic-block space.
	PC uint32
	// Op is the instruction class.
	Op Op
	// Taken is the branch outcome (branches only).
	Taken bool
}

// Emitter accumulates instructions into a caller-owned buffer. Workload
// kernels use it as a tiny assembly DSL: each call appends one or more
// instructions. The zero value is not usable; construct with NewEmitter.
type Emitter struct {
	buf []Inst
}

// NewEmitter returns an Emitter that appends into a fresh buffer with the
// given capacity hint.
func NewEmitter(capHint int) *Emitter {
	return &Emitter{buf: make([]Inst, 0, capHint)}
}

// Reset discards buffered instructions, retaining capacity.
func (e *Emitter) Reset() { e.buf = e.buf[:0] }

// Len returns the number of buffered instructions.
func (e *Emitter) Len() int { return len(e.buf) }

// Take returns the buffered instructions. The returned slice aliases the
// emitter's buffer and is invalidated by the next Reset.
func (e *Emitter) Take() []Inst { return e.buf }

// Int emits n integer ALU operations at the given PC.
func (e *Emitter) Int(pc uint32, n int) {
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, Inst{Op: OpInt, PC: pc})
	}
}

// FP emits n floating-point operations at the given PC.
func (e *Emitter) FP(pc uint32, n int) {
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, Inst{Op: OpFP, PC: pc})
	}
}

// Load emits a load from addr.
func (e *Emitter) Load(pc uint32, addr uint64) {
	e.buf = append(e.buf, Inst{Op: OpLoad, PC: pc, Addr: addr})
}

// Store emits a store to addr.
func (e *Emitter) Store(pc uint32, addr uint64) {
	e.buf = append(e.buf, Inst{Op: OpStore, PC: pc, Addr: addr})
}

// Branch emits a conditional branch at pc with the given outcome.
func (e *Emitter) Branch(pc uint32, taken bool) {
	e.buf = append(e.buf, Inst{Op: OpBranch, PC: pc, Taken: taken})
}

// Sync emits a synchronization (barrier-arrival) instruction.
func (e *Emitter) Sync(pc uint32) {
	e.buf = append(e.buf, Inst{Op: OpSync, PC: pc})
}

// Append emits an already-formed instruction verbatim. Trace replay
// uses this to re-issue externally captured streams through the same
// buffer discipline the synthetic kernels use.
func (e *Emitter) Append(in Inst) {
	e.buf = append(e.buf, in)
}

// LoopBranch emits the backward branch that closes a counted loop:
// taken for every iteration except the last. Call once per iteration with
// the current index i and trip count n.
func (e *Emitter) LoopBranch(pc uint32, i, n int) {
	e.Branch(pc, i+1 < n)
}
