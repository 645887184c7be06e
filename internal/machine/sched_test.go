package machine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
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
// non-power-of-two count, every coherence backend, online
// classification on and off, the DDS gather charged and free, an
// interval short enough to close mostly on non-memory instructions,
// and a barrier-heavy thread mix.
func TestSchedulerEquivalence(t *testing.T) {
	var cases []randCase
	for _, procs := range []int{1, 2, 5, 8, 32} {
		for seed := int64(1); seed <= 3; seed++ {
			cases = append(cases, randCase{name: fmt.Sprintf("procs=%d/seed=%d", procs, seed), procs: procs, seed: seed})
		}
	}
	for _, kind := range coherence.Kinds() {
		for _, online := range []*OnlineConfig{nil, {Kind: core.DetectorBBVDDV, ThBBV: 0.3, ThDDS: 0.15}} {
			for _, charge := range []bool{true, false} {
				for _, interval := range []uint64{300, 37} {
					name := fmt.Sprintf("%s/online=%t/charge=%t/interval=%d", kind, online != nil, charge, interval)
					cases = append(cases, randCase{name: name, procs: 8, seed: 4, tweak: func(c *Config) {
						c.Protocol = kind
						c.Online = online
						c.ChargeDDSGather = charge
						c.IntervalInstructions = interval
					}})
				}
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

// TestProcHeapEqualClocksPopInIDOrder drives the heap directly: pushed
// in scrambled order with equal clocks, takeMin/removeMin must yield
// ascending processor IDs (the assert inside takeMin guards exactly
// this), each with the next ID as its runner-up.
func TestProcHeapEqualClocksPopInIDOrder(t *testing.T) {
	ph := newProcHeap(8)
	for _, id := range []int{5, 1, 7, 0, 3, 6, 2, 4} {
		ph.push(&proc{id: id, clock: 42})
	}
	for want := 0; want < 8; want++ {
		p, nextClock, nextID := ph.takeMin()
		if p == nil || p.id != want {
			t.Fatalf("takeMin #%d = %+v, want id %d", want, p, want)
		}
		if want < 7 && (nextClock != 42 || nextID != want+1) {
			t.Fatalf("takeMin #%d runner-up = (%v, %d), want (42, %d)", want, nextClock, nextID, want+1)
		}
		ph.removeMin()
	}
	if p, _, _ := ph.takeMin(); p != nil {
		t.Errorf("empty heap takeMin = %v", p)
	}
}

// TestProcHeapRunnerUp checks takeMin's runner-up key is the second
// element of the heap's total order even when it sits in the root's
// second child, that a lone processor's horizon is infinite, and that
// fix(clock) restores order after the root's clock advances.
func TestProcHeapRunnerUp(t *testing.T) {
	ph := newProcHeap(4)
	a := &proc{id: 0, clock: 1}
	b := &proc{id: 1, clock: 9}
	c := &proc{id: 2, clock: 3}
	d := &proc{id: 3, clock: 4}
	ph.push(a)
	if min, nextClock, _ := ph.takeMin(); min != a || !math.IsInf(nextClock, 1) {
		t.Fatalf("lone takeMin = (id %d, %v), want (0, +Inf)", min.id, nextClock)
	}
	for _, p := range []*proc{b, c, d} {
		ph.push(p)
	}
	min, nextClock, nextID := ph.takeMin()
	if min != a || nextClock != 3 || nextID != 2 {
		t.Fatalf("takeMin = (id %d, %v, %d), want (0, 3, 2)", min.id, nextClock, nextID)
	}
	// The root runs past the runner-up; fix must promote c.
	ph.fix(3.5)
	min, nextClock, nextID = ph.takeMin()
	if min != c || nextClock != 3.5 || nextID != 0 {
		t.Fatalf("after fix: takeMin = (id %d, %v, %d), want (2, 3.5, 0)", min.id, nextClock, nextID)
	}
}
