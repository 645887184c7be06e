package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpInt:    "int",
		OpFP:     "fp",
		OpLoad:   "load",
		OpStore:  "store",
		OpBranch: "branch",
		OpSync:   "sync",
		Op(99):   "op(99)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestIsMem(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("loads and stores must be memory ops")
	}
	for _, op := range []Op{OpInt, OpFP, OpBranch, OpSync} {
		if op.IsMem() {
			t.Errorf("%v.IsMem() = true, want false", op)
		}
	}
}

func TestEmitterCounts(t *testing.T) {
	e := NewEmitter(16)
	e.Int(1, 3)
	e.FP(2, 2)
	e.Load(3, 0x100)
	e.Store(4, 0x200)
	e.Branch(5, true)
	e.Sync(6)
	if e.Len() != 9 {
		t.Fatalf("Len = %d, want 9", e.Len())
	}
	buf := e.Take()
	wantOps := []Op{OpInt, OpInt, OpInt, OpFP, OpFP, OpLoad, OpStore, OpBranch, OpSync}
	for i, w := range wantOps {
		if buf[i].Op != w {
			t.Errorf("inst %d op = %v, want %v", i, buf[i].Op, w)
		}
	}
	if buf[5].Addr != 0x100 || buf[6].Addr != 0x200 {
		t.Error("load/store addresses not preserved")
	}
	if !buf[7].Taken {
		t.Error("branch taken bit not preserved")
	}
}

func TestEmitterReset(t *testing.T) {
	e := NewEmitter(4)
	e.Int(1, 10)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", e.Len())
	}
	e.Int(2, 1)
	if e.Len() != 1 {
		t.Fatalf("Len after re-emit = %d, want 1", e.Len())
	}
}

func TestLoopBranchOutcomes(t *testing.T) {
	e := NewEmitter(8)
	n := 5
	for i := 0; i < n; i++ {
		e.LoopBranch(7, i, n)
	}
	buf := e.Take()
	for i := 0; i < n-1; i++ {
		if !buf[i].Taken {
			t.Errorf("iteration %d: backward branch should be taken", i)
		}
	}
	if buf[n-1].Taken {
		t.Error("final iteration: backward branch should fall through")
	}
}

// Property: emitting k ints always grows the buffer by exactly k, and
// every emitted instruction carries the requested PC.
func TestEmitterIntProperty(t *testing.T) {
	f := func(pc uint32, kRaw uint8) bool {
		k := int(kRaw % 64)
		e := NewEmitter(0)
		e.Int(pc, k)
		if e.Len() != k {
			return false
		}
		for _, in := range e.Take() {
			if in.PC != pc || in.Op != OpInt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInstSize pins the packed layout: emitter buffers and trace-replay
// segments are sized in Insts, and a field reorder that reintroduces
// padding would grow them by half.
func TestInstSize(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 16", got)
	}
}
