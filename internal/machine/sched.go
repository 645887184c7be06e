package machine

import "math"

// Run-until-horizon scheduling with shared-event lookahead (DESIGN.md
// §10).
//
// The naive scheduler re-scans all P processors for the minimum
// (clock, id) before every committed instruction — O(instrs × P) — and
// so commits all instructions merged in ascending (clock, id) order.
// Only the order of shared events (Machine.shared) is observable; every
// other instruction touches only its own processor's state. The horizon
// scheduler keeps runnable processors in a binary min-heap keyed by
// (clock, id), takes the root, reads the runner-up's key once (nothing
// else moves while the root runs), and commits the root's instructions
// until it blocks (barrier arrival / thread completion) or its next
// instruction is a shared event past that key. The heap is then
// repaired with one sift-down of the root — no pop/push pair.
//
// Private instructions only add to a clock, so every heap key is at
// most its processor's next shared-event key; a shared event commits
// only below the runner-up's key, hence below every other processor's
// next shared event. Shared events therefore commit in the naive scan's
// order and see the state they see there: the output is byte-identical
// (TestSchedulerEquivalence; Config.NaiveScheduler is the oracle). The
// lookahead pulls batches earlier than the scan would, which the
// isa.Thread contract — NextBatch depends only on the thread's own
// state — makes invisible.

// heapSlot is one runnable processor with its (clock, id) key held
// inline, so sifting compares without dereferencing the processor.
type heapSlot struct {
	clock float64
	id    int
	p     *proc
}

// less orders slots by (clock, id): the scheduling winner is the
// runnable processor with the smallest clock, ties broken by lowest
// processor ID — the same total order pickRunnable's ID-ordered scan
// implements, which is what makes runs deterministic.
func (a *heapSlot) less(b *heapSlot) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// procHeap is a binary min-heap of runnable processors. Only the
// root's key ever changes (the taken processor runs while everyone
// else stands still), so the heap needs no decrease-key: takeMin, run,
// fix — or removeMin when the processor blocked.
type procHeap struct {
	h []heapSlot
}

func newProcHeap(capacity int) *procHeap {
	return &procHeap{h: make([]heapSlot, 0, capacity)}
}

// takeMin returns the scheduling winner (the root, left in place), or
// nil for an empty heap, and the runner-up's key — the least of the
// root's children, the second element of the heap's total order — or
// (+Inf, 0) when the winner runs alone. It asserts the determinism
// contract: among equal clocks, processors pop in ascending ID order (a
// violation would mean the heap invariant broke and replicated runs
// could diverge). The caller runs min, then calls fix (still runnable)
// or removeMin (blocked).
func (ph *procHeap) takeMin() (min *proc, nextClock float64, nextID int) {
	h := ph.h
	switch len(h) {
	case 0:
		return nil, 0, 0
	case 1:
		return h[0].p, math.Inf(1), 0
	}
	next := &h[1]
	if len(h) > 2 && h[2].less(next) {
		next = &h[2]
	}
	if next.clock == h[0].clock && next.id < h[0].id {
		panic("machine: scheduler heap pops equal clocks out of ID order")
	}
	return h[0].p, next.clock, next.id
}

// fix records the root's advanced clock and restores the heap order.
func (ph *procHeap) fix(clock float64) {
	ph.h[0].clock = clock
	ph.siftDown(0)
}

// removeMin deletes the root.
func (ph *procHeap) removeMin() {
	n := len(ph.h)
	last := ph.h[n-1]
	ph.h[n-1] = heapSlot{}
	ph.h = ph.h[:n-1]
	if n > 1 {
		ph.h[0] = last
		ph.siftDown(0)
	}
}

func (ph *procHeap) push(p *proc) {
	ph.h = append(ph.h, heapSlot{clock: p.clock, id: p.id, p: p})
	i := len(ph.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ph.h[i].less(&ph.h[parent]) {
			break
		}
		ph.h[i], ph.h[parent] = ph.h[parent], ph.h[i]
		i = parent
	}
}

func (ph *procHeap) siftDown(i int) {
	h := ph.h
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].less(&h[smallest]) {
			smallest = l
		}
		if r < n && h[r].less(&h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// runHorizon drives all threads to completion under the horizon
// scheduler. Observable behavior is byte-identical to runNaive.
func (m *Machine) runHorizon() error {
	heap := newProcHeap(len(m.procs))
	for _, p := range m.procs {
		if !p.done && !p.atBarrier {
			heap.push(p)
		}
	}
	for {
		p, nextClock, nextID := heap.takeMin()
		if p == nil {
			if m.allDone() {
				return nil
			}
			if m.allBlocked() {
				m.releaseBarrier()
				for _, q := range m.procs {
					if !q.done && !q.atBarrier {
						heap.push(q)
					}
				}
				continue
			}
			return errDeadlock
		}
		// p runs until its next instruction is a shared event past the
		// horizon (nextClock, nextID), or until it blocks.
		for {
			if !p.fill() {
				heap.removeMin()
				break
			}
			if (p.clock > nextClock || (p.clock == nextClock && p.id > nextID)) &&
				m.shared(p, &p.buf[p.pos]) {
				heap.fix(p.clock)
				break
			}
			if err := m.commit(p); err != nil {
				return err
			}
			if p.atBarrier {
				heap.removeMin()
				break
			}
		}
	}
}

// runNaive is the original per-instruction min-scan scheduler, kept as
// the equivalence oracle (Config.NaiveScheduler).
func (m *Machine) runNaive() error {
	for {
		p := m.pickRunnable()
		if p == nil {
			if m.allDone() {
				return nil
			}
			if m.allBlocked() {
				m.releaseBarrier()
				continue
			}
			return errDeadlock
		}
		if err := m.step(p); err != nil {
			return err
		}
	}
}
