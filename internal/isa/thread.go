package isa

// Thread is a resumable instruction-stream generator: one logical thread
// of a parallel workload. The machine pulls batches on demand; a batch
// boundary carries no semantic meaning (it is purely a buffering
// granularity), except that Sync instructions mark barrier arrivals.
//
// NextBatch may depend only on the thread's own state — never on
// another thread's progress or on when it is called. The machine's
// scheduler runs a thread ahead of the others in simulated time between
// shared events, so the order of NextBatch calls across threads is
// unspecified (workloads' TestThreadsIndependentOfPullOrder pins the
// contract for every registered workload).
type Thread interface {
	// NextBatch emits the thread's next chunk of instructions into e
	// (which the caller has Reset). It returns false — emitting nothing —
	// when the thread has run to completion.
	NextBatch(e *Emitter) bool
}

// ThreadFunc adapts a function to the Thread interface.
type ThreadFunc func(e *Emitter) bool

// NextBatch calls f.
func (f ThreadFunc) NextBatch(e *Emitter) bool { return f(e) }
