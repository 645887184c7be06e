package workloads

import (
	"math/bits"
	"testing"

	"dsmphase/internal/isa"
)

// streamDigest is an order-sensitive fingerprint of one thread's
// per-batch instruction stream, so tests compare streams without
// holding them. Every field and each batch's length is mixed in
// FNV-1a style on whole words, with a rotation after each multiply so
// a difference in high bits (the home node of an address) reaches the
// low bits too. Batch lengths are folded in because the scheduler interleaves
// threads at batch granularity: two streams that concatenate
// identically but split differently simulate differently.
type streamDigest struct {
	n    int
	hash uint64
}

func (d *streamDigest) add(batch []isa.Inst) {
	d.mix(uint64(len(batch)))
	for _, in := range batch {
		taken := uint64(0)
		if in.Taken {
			taken = 1
		}
		for _, x := range [...]uint64{uint64(in.Op), uint64(in.PC), in.Addr, taken} {
			d.mix(x)
		}
	}
	d.n += len(batch)
}

func (d *streamDigest) mix(x uint64) {
	d.hash = bits.RotateLeft64((d.hash^x)*1099511628211, 29)
}

// TestThreadsIndependentOfPullOrder pins the isa.Thread contract the
// machine's horizon scheduler relies on: NextBatch depends only on the
// thread's own state, so pulling batches earlier or later relative to
// the other threads cannot change any thread's stream. For every
// registered workload — the built-ins (all lowered from Programs), the
// committed DSL examples and an ingested trace — each thread's stream
// must be identical whether the threads are drained one after another
// or round-robin one batch at a time (in reverse thread order, so no
// pull happens in the same relative order twice).
func TestThreadsIndependentOfPullOrder(t *testing.T) {
	for _, f := range [][]string{
		{"adversarial_phases", "oscillate.wdl"},
		{"adversarial_phases", "drift.wdl"},
		{"fuzz_found", "oscillate-f2.wdl"},
		{"fuzz_found", "drift-f10.wdl"},
		{"fuzz_found", "drift-f13.wdl"},
		{"trace_ingest", "pingpong.wdl"},
	} {
		loadExample(t, f...)
	}
	const n = 4
	for _, w := range All() {
		e := isa.NewEmitter(4096)
		sequential := make([]streamDigest, n)
		for i, th := range w.Threads(n, SizeTest, 1) {
			for e.Reset(); th.NextBatch(e); e.Reset() {
				sequential[i].add(e.Take())
			}
		}
		roundRobin := make([]streamDigest, n)
		threads := w.Threads(n, SizeTest, 1)
		for live := n; live > 0; {
			for i := n - 1; i >= 0; i-- {
				if threads[i] == nil {
					continue
				}
				e.Reset()
				if !threads[i].NextBatch(e) {
					threads[i] = nil
					live--
					continue
				}
				roundRobin[i].add(e.Take())
			}
		}
		if sequential[0].n == 0 {
			t.Errorf("%s thread 0: empty stream", w.Name())
		}
		for i := range sequential {
			if sequential[i] != roundRobin[i] {
				t.Errorf("%s thread %d: stream depends on pull order (sequential %+v, round-robin %+v)",
					w.Name(), i, sequential[i], roundRobin[i])
			}
		}
	}
}
