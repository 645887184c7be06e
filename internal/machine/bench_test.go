package machine

import (
	"testing"

	"dsmphase/internal/coherence"
	"dsmphase/internal/isa"
)

// stepThread is an endless bounded-footprint workload for steady-state
// step measurement: a fixed basic block (int ops, a load cycling
// through a small region, a branch) that never completes, so every
// committed instruction after warm-up exercises the same hot path.
type stepThread struct {
	off uint64
	pc  uint32
}

func (t *stepThread) NextBatch(e *isa.Emitter) bool {
	for i := 0; i < 256; i++ {
		e.Int(t.pc, 2)
		e.Load(t.pc+4, AddrAt(0, t.off))
		t.off = (t.off + 32) & (1<<14 - 1)
		e.Branch(t.pc+8, i%7 != 0)
	}
	return true
}

// benchMachine builds a 1-proc machine over the endless thread — the
// pure step path, no scheduling or network in the way.
func benchMachine(interval uint64) *Machine {
	return benchMachineProto(interval, coherence.KindDirectory)
}

// benchMachineProto is benchMachine with an explicit coherence backend.
func benchMachineProto(interval uint64, proto coherence.Kind) *Machine {
	cfg := DefaultConfig(1)
	cfg.IntervalInstructions = interval
	cfg.Protocol = proto
	return New(cfg, []isa.Thread{&stepThread{}})
}

// BenchmarkStep measures the machine's per-committed-instruction cost —
// the innermost loop every scale argument multiplies by — including its
// share of interval ends. ReportAllocs makes any per-instruction or
// per-interval allocation regression visible as a non-zero allocs/op.
// The directory backend keeps the bare "BenchmarkStep" series name, so
// earlier measurements stay comparable; the other backends run under
// BenchmarkStepProtocol as protocol-suffixed sub-benchmarks (a b.Run
// here would demote the bare series to an unreported parent).
func BenchmarkStep(b *testing.B) {
	runStepBench(b, coherence.KindDirectory)
}

// BenchmarkStepProtocol is BenchmarkStep for every non-default
// coherence backend.
func BenchmarkStepProtocol(b *testing.B) {
	for _, proto := range coherence.Kinds() {
		if proto == coherence.KindDirectory {
			continue
		}
		b.Run(proto.String(), func(b *testing.B) { runStepBench(b, proto) })
	}
}

func runStepBench(b *testing.B, proto coherence.Kind) {
	m := benchMachineProto(10_000, proto)
	p := m.procs[0]
	// Warm up: populate caches, directory map, first records/arena
	// growth steps.
	for i := 0; i < 50_000; i++ {
		if err := m.step(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.step(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepSteadyStateDoesNotAllocate is the hard form of the
// BenchmarkStep allocs/op readout: after warm-up, committing tens of
// thousands of instructions — interval ends included — performs no
// heap allocation. Record-slice and BBV-arena growth are amortized
// warm-up costs; the budget below tolerates only their rare chunk
// boundaries landing inside the measured window.
func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	m := benchMachine(500)
	p := m.procs[0]
	for i := 0; i < 60_000; i++ {
		if err := m.step(p); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < 10_000; i++ {
			if err := m.step(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	// 10k instructions = 20 interval ends per run. Anything ≥ 1
	// alloc/run means a per-interval (or worse) allocation crept back
	// into the hot path.
	if avg >= 1 {
		t.Errorf("steady-state step path allocates: %.1f allocs per 10k instructions, want < 1", avg)
	}
}
