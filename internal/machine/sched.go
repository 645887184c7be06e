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
// scheduler keeps runnable processors in a run queue sorted by
// (clock, id), takes the front, reads the runner-up's key once (nothing
// else moves while the front runs), and commits the front's
// instructions until it blocks (barrier arrival / thread completion) or
// its next instruction is a shared event past that key. The queue is
// then repaired by reinserting the front from its nearer end.
//
// Private instructions only add to a clock, so every queue key is at
// most its processor's next shared-event key; a shared event commits
// only below the runner-up's key, hence below every other processor's
// next shared event. Shared events therefore commit in the naive scan's
// order and see the state they see there: the output is byte-identical
// (TestSchedulerEquivalence; Config.NaiveScheduler is the oracle). The
// lookahead pulls batches earlier than the scan would, which the
// isa.Thread contract — NextBatch depends only on the thread's own
// state — makes invisible.

// heapSlot is one runnable processor with its (clock, id) key held
// inline, so reinsertion compares without dereferencing the processor.
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

// runQueue holds the runnable processors sorted by (clock, id) in a
// power-of-two ring: logical slot i is ring[(head+i)&mask], slot 0 is
// the scheduling winner and slot 1 the runner-up. Only the front's key
// ever changes (the taken processor runs while everyone else stands
// still), so the queue needs no decrease-key: takeMin, run, fix — or
// removeMin when the processor blocked.
//
// A parked front mostly lands either a few slots back or behind
// everyone (it ran far past the horizon), so fix reinserts it from the
// nearer end: both are a sorted list's cheap cases, where a binary heap
// would pay a full sift-down.
type runQueue struct {
	ring []heapSlot
	mask int
	head int
	n    int
}

// newRunQueue returns an empty queue with room for capacity processors
// (the ring rounds it up to a power of two).
func newRunQueue(capacity int) *runQueue {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &runQueue{ring: make([]heapSlot, size), mask: size - 1}
}

// at returns logical slot i.
func (q *runQueue) at(i int) *heapSlot {
	return &q.ring[(q.head+i)&q.mask]
}

// takeMin returns the scheduling winner (the front, left in place), or
// nil for an empty queue, and the runner-up's key — logical slot 1 — or
// (+Inf, 0) when the winner runs alone. It asserts the determinism
// contract: among equal clocks, processors pop in ascending ID order (a
// violation would mean the queue order broke and replicated runs could
// diverge). The caller runs min, then calls fix (still runnable) or
// removeMin (blocked).
func (q *runQueue) takeMin() (min *proc, nextClock float64, nextID int) {
	switch q.n {
	case 0:
		return nil, 0, 0
	case 1:
		return q.ring[q.head].p, math.Inf(1), 0
	}
	front, next := q.at(0), q.at(1)
	if next.clock == front.clock && next.id < front.id {
		panic("machine: scheduler run queue pops equal clocks out of ID order")
	}
	return front.p, next.clock, next.id
}

// fix records the front's advanced clock and restores the order. One
// compare against the middle slot picks the nearer end: a front that
// still sorts before it shifts back slot by slot from the head;
// otherwise the head advances past it and it is inserted from the tail.
// Either walk stops at the middle slot at the latest.
func (q *runQueue) fix(clock float64) {
	front := &q.ring[q.head]
	front.clock = clock
	if q.n == 1 {
		return
	}
	s := *front
	if s.less(q.at(q.n / 2)) {
		i := q.head
		for {
			next := (i + 1) & q.mask
			if !q.ring[next].less(&s) {
				break
			}
			q.ring[i] = q.ring[next]
			i = next
		}
		q.ring[i] = s
		return
	}
	q.removeMin()
	q.insertFromTail(s)
}

// insertFromTail adds s to the sorted queue, walking back from the
// first free slot. The ring must have room.
func (q *runQueue) insertFromTail(s heapSlot) {
	i := (q.head + q.n) & q.mask
	for n := q.n; n > 0; n-- {
		prev := (i - 1) & q.mask
		if !s.less(&q.ring[prev]) {
			break
		}
		q.ring[i] = q.ring[prev]
		i = prev
	}
	q.ring[i] = s
	q.n++
}

// removeMin deletes the front.
func (q *runQueue) removeMin() {
	q.ring[q.head] = heapSlot{}
	q.head = (q.head + 1) & q.mask
	q.n--
}

// push adds a runnable processor; the queue must hold fewer than its
// capacity.
func (q *runQueue) push(p *proc) {
	if q.n == len(q.ring) {
		panic("machine: scheduler run queue is full")
	}
	q.insertFromTail(heapSlot{clock: p.clock, id: p.id, p: p})
}

// runHorizon drives all threads to completion under the horizon
// scheduler. Observable behavior is byte-identical to runNaive.
func (m *Machine) runHorizon() error {
	q := newRunQueue(len(m.procs))
	for _, p := range m.procs {
		if !p.done && !p.atBarrier {
			q.push(p)
		}
	}
	for {
		p, nextClock, nextID := q.takeMin()
		if p == nil {
			if m.allDone() {
				return nil
			}
			if m.allBlocked() {
				m.releaseBarrier()
				for _, r := range m.procs {
					if !r.done && !r.atBarrier {
						q.push(r)
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
				q.removeMin()
				break
			}
			if (p.clock > nextClock || (p.clock == nextClock && p.id > nextID)) &&
				m.shared(p, &p.buf[p.pos]) {
				q.fix(p.clock)
				break
			}
			if err := m.commit(p); err != nil {
				return err
			}
			if p.atBarrier {
				q.removeMin()
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
