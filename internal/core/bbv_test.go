package core

import (
	"math"
	"testing"
	"testing/quick"
)

// snapshot returns a's normalized snapshot in a fresh slice.
func snapshot(a *Accumulator) []float64 { return a.SnapshotInto(make([]float64, a.Size())) }

func TestAccumulatorBasics(t *testing.T) {
	a := NewAccumulator(8)
	if a.Size() != 8 {
		t.Fatalf("Size = %d", a.Size())
	}
	// Basic block of 4 instructions ending in a branch at PC 0x40.
	a.Instruction()
	a.Instruction()
	a.Instruction()
	a.Branch(0x40)
	if a.Total() != 4 {
		t.Fatalf("Total = %d, want 4", a.Total())
	}
	snap := snapshot(a)
	var sum float64
	nonZero := 0
	for _, v := range snap {
		sum += v
		if v > 0 {
			nonZero++
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("snapshot sum = %v, want 1", sum)
	}
	if nonZero != 1 {
		t.Errorf("one basic block must occupy exactly one bucket, got %d", nonZero)
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulator(8)
	a.Instruction()
	a.Branch(0x10)
	a.Reset()
	if a.Total() != 0 {
		t.Error("Total not reset")
	}
	for i, v := range snapshot(a) {
		if v != 0 {
			t.Errorf("bucket %d = %v after reset", i, v)
		}
	}
}

func TestAccumulatorEmptySnapshot(t *testing.T) {
	a := NewAccumulator(4)
	snap := snapshot(a)
	for _, v := range snap {
		if v != 0 {
			t.Fatal("empty accumulator snapshot must be zero")
		}
	}
}

func TestAccumulatorTailInstructionsDropped(t *testing.T) {
	a := NewAccumulator(4)
	a.Branch(0x10)
	// Instructions after the last branch are not attributed.
	a.Instruction()
	a.Instruction()
	snap := snapshot(a)
	var sum float64
	for _, v := range snap {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v; tail instructions must not distort the distribution", sum)
	}
}

func TestAccumulatorDistinctBlocks(t *testing.T) {
	a := NewAccumulator(32)
	// Two distinct basic blocks executed with 3:1 frequency.
	for i := 0; i < 3; i++ {
		a.Instruction()
		a.Branch(0x100)
	}
	a.Instruction()
	a.Branch(0x2040)
	snap := snapshot(a)
	i1, i2 := hashPC(0x100, 32), hashPC(0x2040, 32)
	if i1 == i2 {
		t.Skip("hash collision in chosen PCs; pick different test PCs")
	}
	if math.Abs(snap[i1]-0.75) > 1e-12 || math.Abs(snap[i2]-0.25) > 1e-12 {
		t.Errorf("distribution = %v / %v, want 0.75 / 0.25", snap[i1], snap[i2])
	}
}

func TestNewAccumulatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 0")
		}
	}()
	NewAccumulator(0)
}

func TestManhattan(t *testing.T) {
	a := []float64{0.5, 0.5, 0}
	b := []float64{0, 0.5, 0.5}
	if got := Manhattan(a, b); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Manhattan = %v, want 1", got)
	}
	if got := Manhattan(a, a); got != 0 {
		t.Errorf("self-distance = %v", got)
	}
}

func TestManhattanMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Manhattan([]float64{1}, []float64{1, 2})
}

// Properties of the Manhattan distance: symmetry, non-negativity,
// triangle inequality, and boundedness by 2 for normalized vectors.
func TestManhattanProperties(t *testing.T) {
	norm := func(raw []uint8) []float64 {
		v := make([]float64, 8)
		var sum float64
		for i := range v {
			var x float64 = 1 // avoid all-zero
			if i < len(raw) {
				x = float64(raw[i]) + 1
			}
			v[i] = x
			sum += x
		}
		for i := range v {
			v[i] /= sum
		}
		return v
	}
	f := func(ra, rb, rc []uint8) bool {
		a, b, c := norm(ra), norm(rb), norm(rc)
		dab, dba := Manhattan(a, b), Manhattan(b, a)
		if math.Abs(dab-dba) > 1e-12 || dab < 0 || dab > 2+1e-12 {
			return false
		}
		// Triangle inequality.
		return Manhattan(a, c) <= dab+Manhattan(b, c)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the accumulator snapshot always sums to 0 or 1, and total
// instruction count equals what was fed in.
func TestAccumulatorSnapshotProperty(t *testing.T) {
	f := func(blocks []uint8, pcs []uint32) bool {
		a := NewAccumulator(32)
		var fed uint64
		for i, blen := range blocks {
			n := int(blen % 16)
			for k := 0; k < n; k++ {
				a.Instruction()
			}
			fed += uint64(n)
			if i < len(pcs) {
				a.Branch(pcs[i])
				fed++
			}
		}
		if a.Total() != fed {
			return false
		}
		var sum float64
		for _, v := range snapshot(a) {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == 0 || math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPCInRange(t *testing.T) {
	f := func(pc uint32) bool {
		h := hashPC(pc, 32)
		return h >= 0 && h < 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashPCSpreads(t *testing.T) {
	// 256 word-aligned PCs must hit a healthy fraction of 32 buckets.
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		seen[hashPC(uint32(0x1000+4*i), 32)] = true
	}
	if len(seen) < 24 {
		t.Errorf("hash hit only %d/32 buckets", len(seen))
	}
}
