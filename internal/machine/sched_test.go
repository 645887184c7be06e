package machine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dsmphase/internal/coherence"
	"dsmphase/internal/isa"
	"dsmphase/internal/network"
)

// randThread emits a seeded pseudo-random mix of every instruction
// class, with loads/stores spread across all home nodes and occasional
// barriers — a fuzz-ish workload exercising the scheduler's blocking,
// contention and interval paths.
type randThread struct {
	rng     *rand.Rand
	batches int
	procs   int
	pc      uint32
	// syncOdds makes one in syncOdds of the barrier-slot draws (a tenth
	// of all draws) a barrier arrival; the rest are integer ops.
	syncOdds int
}

func (t *randThread) NextBatch(e *isa.Emitter) bool {
	if t.batches <= 0 {
		return false
	}
	t.batches--
	for i := 0; i < 200; i++ {
		switch t.rng.Intn(10) {
		case 0, 1, 2:
			e.Int(t.pc+uint32(t.rng.Intn(64))*4, 1+t.rng.Intn(3))
		case 3:
			e.FP(t.pc+256, 1+t.rng.Intn(2))
		case 4, 5, 6:
			home := t.rng.Intn(t.procs)
			off := uint64(t.rng.Intn(1<<14) * 32)
			if t.rng.Intn(3) == 0 {
				e.Store(t.pc+512, AddrAt(home, off))
			} else {
				e.Load(t.pc+512, AddrAt(home, off))
			}
		case 7, 8:
			e.Branch(t.pc+uint32(t.rng.Intn(16))*4+1024, t.rng.Intn(3) != 0)
		case 9:
			if t.rng.Intn(t.syncOdds) == 0 {
				e.Sync(t.pc + 2048)
			} else {
				e.Int(t.pc, 1)
			}
		}
	}
	return true
}

// randCase is one randomized scheduler-equivalence configuration.
type randCase struct {
	name  string
	procs int
	seed  int64
	// syncOdds is randThread.syncOdds; zero selects 8.
	syncOdds int
	// tweak, if non-nil, adjusts the machine configuration.
	tweak func(*Config)
}

// buildRandMachine assembles a procs-node machine over randomized
// threads. Non-power-of-two counts ride the mesh (the hypercube needs a
// power of two); the 5-proc case is exactly why the mesh accepts any n.
func buildRandMachine(rc randCase, naive bool) *Machine {
	cfg := DefaultConfig(rc.procs)
	cfg.IntervalInstructions = 300
	if rc.procs&(rc.procs-1) != 0 {
		cfg.Topology = network.KindMesh2D
	}
	if rc.tweak != nil {
		rc.tweak(&cfg)
	}
	cfg.NaiveScheduler = naive
	syncOdds := rc.syncOdds
	if syncOdds == 0 {
		syncOdds = 8
	}
	threads := make([]isa.Thread, rc.procs)
	for i := range threads {
		threads[i] = &randThread{
			rng:      rand.New(rand.NewSource(rc.seed + int64(i)*7919)),
			batches:  6 + i%3,
			procs:    rc.procs,
			syncOdds: syncOdds,
		}
	}
	return New(cfg, threads)
}

// requireSameRun runs the naive oracle and the horizon scheduler and
// requires identical observable output: the same error (or none), and
// identical Summary, Protocol.Stats and IntervalSignature streams. It
// returns the oracle's error.
func requireSameRun(t *testing.T, name string, oracle, horizon *Machine) error {
	t.Helper()
	wantSum, wantErr := oracle.Run()
	gotSum, gotErr := horizon.Run()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error diverged:\nhorizon %v\noracle  %v", name, gotErr, wantErr)
	}
	if gotSum != wantSum {
		t.Errorf("%s: Summary diverged:\nhorizon %+v\noracle  %+v", name, gotSum, wantSum)
	}
	if got, want := horizon.Protocol().Stats(), oracle.Protocol().Stats(); got != want {
		t.Errorf("%s: Protocol.Stats diverged:\nhorizon %+v\noracle  %+v", name, got, want)
	}
	if got, want := horizon.Records(), oracle.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: interval signature streams diverged (%d vs %d records)", name, len(got), len(want))
	}
	if wantErr == nil && wantSum.Instructions == 0 {
		t.Fatalf("%s: degenerate run, no instructions", name)
	}
	return wantErr
}

// TestSchedulerEquivalence pins the tentpole guarantee: the horizon
// scheduler produces the exact observable output of the naive
// per-instruction min-scan oracle — identical IntervalSignature
// streams, Summary and Protocol.Stats — across system sizes including a
// non-power-of-two count, every coherence backend, the DDS gather
// charged and free, an interval short enough to close mostly on
// non-memory instructions, and a barrier-heavy thread mix.
func TestSchedulerEquivalence(t *testing.T) {
	var cases []randCase
	for _, procs := range []int{1, 2, 5, 8, 32} {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, randCase{name: fmt.Sprintf("procs=%d/seed=%d", procs, seed), procs: procs, seed: seed})
		}
	}
	for _, kind := range coherence.Kinds() {
		for _, charge := range []bool{true, false} {
			for _, interval := range []uint64{300, 37} {
				name := fmt.Sprintf("%s/charge=%t/interval=%d", kind, charge, interval)
				cases = append(cases, randCase{name: name, procs: 8, seed: 4, tweak: func(c *Config) {
					c.Protocol = kind
					c.ChargeDDSGather = charge
					c.IntervalInstructions = interval
				}})
			}
		}
		for _, procs := range []int{4, 5, 8} {
			cases = append(cases, randCase{
				name:  fmt.Sprintf("%s/barrier-heavy/procs=%d", kind, procs),
				procs: procs, seed: 5, syncOdds: 1,
				tweak: func(c *Config) { c.Protocol = kind },
			})
		}
	}
	for _, rc := range cases {
		if err := requireSameRun(t, rc.name, buildRandMachine(rc, true), buildRandMachine(rc, false)); err != nil {
			t.Errorf("%s: oracle: %v", rc.name, err)
		}
	}
}

// TestSchedulerBudgetError checks the runaway guard under both
// schedulers: the processor that first exceeds MaxInstructions in the
// naive scan's order is the one the horizon scheduler names, with the
// same records and protocol state at the abort.
func TestSchedulerBudgetError(t *testing.T) {
	for _, kind := range coherence.Kinds() {
		for _, budget := range []uint64{1, 150, 499, 1000} {
			for _, procs := range []int{5, 8} {
				rc := randCase{
					name:  fmt.Sprintf("%s/budget=%d/procs=%d", kind, budget, procs),
					procs: procs, seed: 6,
					tweak: func(c *Config) {
						c.Protocol = kind
						c.IntervalInstructions = 37
						c.MaxInstructions = budget
					},
				}
				err := requireSameRun(t, rc.name, buildRandMachine(rc, true), buildRandMachine(rc, false))
				if err == nil || !strings.Contains(err.Error(), "exceeded instruction budget") {
					t.Errorf("%s: oracle error = %v, want a budget error", rc.name, err)
				}
			}
		}
	}
}

// TestSchedulerBudgetNamesFirstProcessor pins the budget instruction
// as a shared event: processor 0 (FP ops, 1/4 cycle each) is taken
// first on the all-zero tie and runs privately past the horizon, yet
// processor 1 (integer ops, 1/6 cycle each) reaches the budget at the
// smaller clock, so both schedulers must name processor 1.
func TestSchedulerBudgetNamesFirstProcessor(t *testing.T) {
	endless := func(op func(e *isa.Emitter)) isa.Thread {
		return isa.ThreadFunc(func(e *isa.Emitter) bool {
			for i := 0; i < 64; i++ {
				op(e)
			}
			return true
		})
	}
	for _, naive := range []bool{true, false} {
		cfg := DefaultConfig(2)
		cfg.MaxInstructions = 600
		cfg.NaiveScheduler = naive
		m := New(cfg, []isa.Thread{
			endless(func(e *isa.Emitter) { e.FP(0x100, 1) }),
			endless(func(e *isa.Emitter) { e.Int(0x200, 1) }),
		})
		_, err := m.Run()
		if want := "machine: processor 1 exceeded instruction budget 600"; fmt.Sprint(err) != want {
			t.Errorf("naive=%t: error %v, want %q", naive, err, want)
		}
	}
}

// TestPickRunnableTieBreak pins the documented determinism contract on
// both scheduler implementations: among runnable processors with equal
// clocks, the LOWEST processor ID runs first.
func TestPickRunnableTieBreak(t *testing.T) {
	m := buildRandMachine(randCase{procs: 4, seed: 1}, true)
	// All processors start at clock 0 — a full tie.
	if p := m.pickRunnable(); p == nil || p.id != 0 {
		t.Fatalf("pickRunnable on all-zero clocks picked %+v, want proc 0", p)
	}
	m.procs[0].clock = 5
	m.procs[2].clock = 1
	m.procs[3].clock = 1
	if p := m.pickRunnable(); p.id != 1 {
		t.Errorf("pickRunnable picked proc %d, want 1 (clock 0)", p.id)
	}
	m.procs[1].atBarrier = true
	if p := m.pickRunnable(); p.id != 2 {
		t.Errorf("pickRunnable picked proc %d, want 2 (equal-clock tie to lowest ID)", p.id)
	}
}

// TestRunQueueEqualClocksPopInIDOrder drives the run queue directly:
// pushed in scrambled order with equal clocks, takeMin/removeMin must
// yield ascending processor IDs (the assert inside takeMin guards
// exactly this), each with the next ID as its runner-up.
func TestRunQueueEqualClocksPopInIDOrder(t *testing.T) {
	q := newRunQueue(8)
	for _, id := range []int{5, 1, 7, 0, 3, 6, 2, 4} {
		q.push(&proc{id: id, clock: 42})
	}
	for want := 0; want < 8; want++ {
		p, nextClock, nextID := q.takeMin()
		if p == nil || p.id != want {
			t.Fatalf("takeMin #%d = %+v, want id %d", want, p, want)
		}
		if want < 7 && (nextClock != 42 || nextID != want+1) {
			t.Fatalf("takeMin #%d runner-up = (%v, %d), want (42, %d)", want, nextClock, nextID, want+1)
		}
		q.removeMin()
	}
	if p, _, _ := q.takeMin(); p != nil {
		t.Errorf("empty queue takeMin = %v", p)
	}
}

// TestRunQueueRunnerUp checks takeMin's runner-up key is the second
// element of the queue's total order whatever the push order, that a
// lone processor's horizon is infinite, and that fix(clock) restores
// order after the front's clock advances.
func TestRunQueueRunnerUp(t *testing.T) {
	q := newRunQueue(4)
	a := &proc{id: 0, clock: 1}
	b := &proc{id: 1, clock: 9}
	c := &proc{id: 2, clock: 3}
	d := &proc{id: 3, clock: 4}
	q.push(a)
	if min, nextClock, _ := q.takeMin(); min != a || !math.IsInf(nextClock, 1) {
		t.Fatalf("lone takeMin = (id %d, %v), want (0, +Inf)", min.id, nextClock)
	}
	for _, p := range []*proc{b, c, d} {
		q.push(p)
	}
	min, nextClock, nextID := q.takeMin()
	if min != a || nextClock != 3 || nextID != 2 {
		t.Fatalf("takeMin = (id %d, %v, %d), want (0, 3, 2)", min.id, nextClock, nextID)
	}
	// The front runs past the runner-up; fix must promote c.
	q.fix(3.5)
	min, nextClock, nextID = q.takeMin()
	if min != c || nextClock != 3.5 || nextID != 0 {
		t.Fatalf("after fix: takeMin = (id %d, %v, %d), want (2, 3.5, 0)", min.id, nextClock, nextID)
	}
}

// TestRunQueueMatchesSortedReference drives random push/fix/removeMin
// sequences against a slice re-sorted by (clock, id) after every step,
// at every capacity from 1 to 64 (5 and 33 round the ring up; powers
// of two fill it exactly). Clocks come from a small range, so equal
// clocks are common, and fix advances the front by nothing, a little
// (a landing near the front) or a lot (a landing at the back), as the
// horizon scheduler does. Each size must fill its queue, wrap its ring
// head and drain again; after every step the whole logical order, and
// so the front and the runner-up key takeMin reports, must match.
func TestRunQueueMatchesSortedReference(t *testing.T) {
	for capacity := 1; capacity <= 64; capacity++ {
		rng := rand.New(rand.NewSource(int64(capacity)))
		q := newRunQueue(capacity)
		var ref []heapSlot
		idle := make([]*proc, capacity)
		for i := range idle {
			idle[i] = &proc{id: i}
		}
		filled, wrapped := false, false
		for step := 0; step < 1500; step++ {
			// Phases of 100 steps lean towards filling, repairing and
			// draining the queue in turn: out of 10 draws, push, fix
			// and removeMin take w[0], w[1] and the rest.
			w := [3][2]int{{6, 4}, {2, 7}, {0, 4}}[(step/100)%3]
			op := 2
			if r := rng.Intn(10); r < w[0] {
				op = 0
			} else if r < w[0]+w[1] {
				op = 1
			}
			head := q.head
			switch {
			case op == 0 && len(idle) > 0:
				k := rng.Intn(len(idle))
				p := idle[k]
				idle[k] = idle[len(idle)-1]
				idle = idle[:len(idle)-1]
				p.clock = float64(rng.Intn(8))
				q.push(p)
				ref = append(ref, heapSlot{clock: p.clock, id: p.id, p: p})
			case op == 1 && len(ref) > 0:
				clock := ref[0].clock
				switch rng.Intn(4) {
				case 0:
				case 1, 2:
					clock += float64(rng.Intn(3))
				default:
					clock += float64(8 + rng.Intn(8))
				}
				q.fix(clock)
				ref[0].clock = clock
			case op == 2 && len(ref) > 0:
				q.removeMin()
				idle = append(idle, ref[0].p)
				ref = ref[1:]
			default:
				continue
			}
			sort.Slice(ref, func(i, j int) bool { return ref[i].less(&ref[j]) })
			if q.head < head {
				wrapped = true
			}
			if len(ref) == capacity {
				filled = true
			}
			if q.n != len(ref) {
				t.Fatalf("cap %d step %d: queue holds %d, reference %d", capacity, step, q.n, len(ref))
			}
			for i := range ref {
				if got := q.at(i); got.clock != ref[i].clock || got.id != ref[i].id || got.p != ref[i].p {
					t.Fatalf("cap %d step %d: slot %d = (%v, %d), reference (%v, %d)",
						capacity, step, i, got.clock, got.id, ref[i].clock, ref[i].id)
				}
			}
			p, nextClock, nextID := q.takeMin()
			switch len(ref) {
			case 0:
				if p != nil {
					t.Fatalf("cap %d step %d: empty queue takeMin = proc %d", capacity, step, p.id)
				}
			case 1:
				if p != ref[0].p || !math.IsInf(nextClock, 1) {
					t.Fatalf("cap %d step %d: lone takeMin = (proc %d, %v)", capacity, step, p.id, nextClock)
				}
			default:
				if p != ref[0].p || nextClock != ref[1].clock || nextID != ref[1].id {
					t.Fatalf("cap %d step %d: takeMin = (proc %d, %v, %d), reference (%d, %v, %d)",
						capacity, step, p.id, nextClock, nextID, ref[0].id, ref[1].clock, ref[1].id)
				}
			}
		}
		if !filled || (!wrapped && capacity > 1) {
			t.Errorf("cap %d: filled %t, head wrapped %t; the op mix must reach both", capacity, filled, wrapped)
		}
	}
}

// TestRunQueueTakeMinPanicsOnIDOrder pins the determinism assertion: a
// runner-up that ties the front's clock with a lower ID means the order
// broke, and takeMin panics rather than schedule it.
func TestRunQueueTakeMinPanicsOnIDOrder(t *testing.T) {
	q := newRunQueue(2)
	q.push(&proc{id: 1, clock: 1})
	q.push(&proc{id: 0, clock: 2})
	q.at(1).clock = 1
	defer func() {
		if recover() == nil {
			t.Error("takeMin accepted equal clocks out of ID order")
		}
	}()
	q.takeMin()
}
