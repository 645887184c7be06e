package machine

import (
	"math"
	"reflect"
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/isa"
)

// loopThread emits `iters` iterations of a fixed basic block: a few int
// ops, one load to a chosen home, and a loop branch. Batches of
// `batchIters` iterations keep buffers small.
type loopThread struct {
	iters, batchIters int
	emitted           int
	home              int
	stride            uint64
	nextOff           uint64
	pc                uint32
	syncEvery         int // emit a barrier every syncEvery iterations (0 = never)
}

func (t *loopThread) NextBatch(e *isa.Emitter) bool {
	if t.emitted >= t.iters {
		return false
	}
	end := t.emitted + t.batchIters
	if end > t.iters {
		end = t.iters
	}
	for ; t.emitted < end; t.emitted++ {
		e.Int(t.pc, 3)
		e.Load(t.pc+4, AddrAt(t.home, t.nextOff))
		t.nextOff += t.stride
		e.LoopBranch(t.pc+8, t.emitted, t.iters)
		if t.syncEvery > 0 && (t.emitted+1)%t.syncEvery == 0 {
			e.Sync(t.pc + 12)
		}
	}
	return true
}

func smallConfig(procs int, interval uint64) Config {
	cfg := DefaultConfig(procs)
	cfg.IntervalInstructions = interval
	return cfg
}

func TestAddrAt(t *testing.T) {
	a := AddrAt(3, 0x1234)
	if a>>HomeShift != 3 || a&0xFFFF != 0x1234 {
		t.Errorf("AddrAt = %#x", a)
	}
}

func TestUniprocessorRun(t *testing.T) {
	cfg := smallConfig(1, 500)
	th := &loopThread{iters: 2000, batchIters: 64, home: 0, stride: 8}
	m := New(cfg, []isa.Thread{th})
	sum, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2000 iterations × 5 instructions = 10000 instructions.
	if sum.Instructions != 10000 {
		t.Errorf("instructions = %d, want 10000", sum.Instructions)
	}
	// 10000/500 = 20 intervals.
	if sum.Intervals != 20 {
		t.Errorf("intervals = %d, want 20", sum.Intervals)
	}
	recs := m.Records()
	for _, r := range recs {
		if r.Instructions != 500 {
			t.Errorf("interval %d has %d instructions", r.Index, r.Instructions)
		}
		if r.CPI() <= 0 {
			t.Errorf("interval %d CPI = %v", r.Index, r.CPI())
		}
		var s float64
		for _, v := range r.BBV {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("interval %d BBV sum = %v", r.Index, s)
		}
	}
	if sum.IPC <= 0 || sum.IPC > 6 {
		t.Errorf("IPC = %v out of range", sum.IPC)
	}
}

func TestIntervalIndicesSequential(t *testing.T) {
	cfg := smallConfig(2, 300)
	ths := []isa.Thread{
		&loopThread{iters: 1000, batchIters: 50, home: 0, stride: 8},
		&loopThread{iters: 1000, batchIters: 50, home: 1, stride: 8},
	}
	m := New(cfg, ths)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for pid, recs := range m.RecordsByProc() {
		for i, r := range recs {
			if r.Index != i || r.Proc != pid {
				t.Errorf("proc %d record %d: Index=%d Proc=%d", pid, i, r.Index, r.Proc)
			}
		}
	}
}

func TestRemoteAccessesRaiseCPIAndDDS(t *testing.T) {
	cfg := smallConfig(4, 400)
	cfg.ChargeDDSGather = false
	mk := func(home int) []isa.Thread {
		ths := make([]isa.Thread, 4)
		for i := range ths {
			h := i
			if home >= 0 {
				h = home
			}
			// Large stride so every load misses (new line each time).
			ths[i] = &loopThread{iters: 2000, batchIters: 64, home: h, stride: 64, pc: uint32(0x100 * (i + 1))}
		}
		return ths
	}
	// All-local run: every proc touches only its own home.
	mLocal := New(cfg, mk(-1))
	if _, err := mLocal.Run(); err != nil {
		t.Fatal(err)
	}
	// All-remote run: every proc hammers node 3's home.
	mRemote := New(cfg, mk(3))
	if _, err := mRemote.Run(); err != nil {
		t.Fatal(err)
	}
	meanCPI := func(rs []core.IntervalSignature, proc int) (cpi, dds float64) {
		var n int
		for _, r := range rs {
			if r.Proc != proc {
				continue
			}
			cpi += r.CPI()
			dds += r.DDS
			n++
		}
		return cpi / float64(n), dds / float64(n)
	}
	// Proc 0 is remote in the second run (home 3), local in the first.
	cpiL, ddsL := meanCPI(mLocal.Records(), 0)
	cpiR, ddsR := meanCPI(mRemote.Records(), 0)
	if cpiR <= cpiL {
		t.Errorf("remote CPI (%v) must exceed local CPI (%v)", cpiR, cpiL)
	}
	if ddsR <= ddsL {
		t.Errorf("remote DDS (%v) must exceed local DDS (%v)", ddsR, ddsL)
	}
	// Locality counters.
	for _, r := range mLocal.Records() {
		if r.RemoteAccesses != 0 {
			t.Errorf("all-local run recorded %d remote accesses", r.RemoteAccesses)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cfg := smallConfig(2, 1_000_000) // intervals irrelevant here
	// Thread 0 does 10× the work of thread 1 before each barrier.
	ths := []isa.Thread{
		&loopThread{iters: 1000, batchIters: 100, home: 0, stride: 8, syncEvery: 500},
		&loopThread{iters: 100, batchIters: 100, home: 1, stride: 8, syncEvery: 50},
	}
	m := New(cfg, ths)
	sum, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Barriers != 2 {
		t.Errorf("barriers = %d, want 2", sum.Barriers)
	}
	// Both processors must finish at (nearly) the same time: the fast one
	// waited for the slow one at the final barrier.
	c0 := m.procs[0].clock
	c1 := m.procs[1].clock
	if math.Abs(c0-c1) > cfg.BarrierCycles+100 {
		t.Errorf("final clocks diverge: %v vs %v", c0, c1)
	}
	if sum.SyncInstrs != 4 { // 2 barriers × 2 procs
		t.Errorf("sync instrs = %d, want 4", sum.SyncInstrs)
	}
}

func TestSyncExcludedFromIntervalCounts(t *testing.T) {
	cfg := smallConfig(2, 100)
	ths := []isa.Thread{
		&loopThread{iters: 200, batchIters: 20, home: 0, stride: 8, syncEvery: 10},
		&loopThread{iters: 200, batchIters: 20, home: 1, stride: 8, syncEvery: 10},
	}
	m := New(cfg, ths)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Records() {
		if r.Instructions != 100 {
			t.Errorf("interval counted %d instructions, want exactly 100 non-sync", r.Instructions)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []core.IntervalSignature {
		cfg := smallConfig(4, 250)
		ths := make([]isa.Thread, 4)
		for i := range ths {
			ths[i] = &loopThread{iters: 1500, batchIters: 37, home: (i + 1) % 4, stride: 32, pc: uint32(i * 64), syncEvery: 300}
		}
		m := New(cfg, ths)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Records()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical runs produced different interval records")
	}
}

func TestProtocolInvariantsAfterRun(t *testing.T) {
	cfg := smallConfig(4, 500)
	ths := make([]isa.Thread, 4)
	for i := range ths {
		ths[i] = &loopThread{iters: 2000, batchIters: 64, home: (i + 2) % 4, stride: 16, syncEvery: 400}
	}
	m := New(cfg, ths)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Protocol().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMaxInstructionsAborts(t *testing.T) {
	cfg := smallConfig(1, 1000)
	cfg.MaxInstructions = 100
	m := New(cfg, []isa.Thread{&loopThread{iters: 10000, batchIters: 64, stride: 8}})
	if _, err := m.Run(); err == nil {
		t.Error("expected instruction-budget error")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []func(){
		func() { New(Config{Procs: 0}, nil) },
		func() { New(smallConfig(2, 100), []isa.Thread{&loopThread{}}) },
		func() {
			cfg := smallConfig(1, 0)
			cfg.IntervalInstructions = 0
			New(cfg, []isa.Thread{&loopThread{}})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDDSGatherChargesCycles(t *testing.T) {
	mk := func(charge bool, interval uint64) float64 {
		cfg := smallConfig(4, interval)
		cfg.ChargeDDSGather = charge
		ths := make([]isa.Thread, 4)
		for i := range ths {
			ths[i] = &loopThread{iters: 4000, batchIters: 50, home: i, stride: 8}
		}
		m := New(cfg, ths)
		sum, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum.Cycles
	}
	withShort, withoutShort := mk(true, 200), mk(false, 200)
	if withShort <= withoutShort {
		t.Errorf("gather charging must add cycles: %v vs %v", withShort, withoutShort)
	}
	// The paper's claim is that the exchange cost amortizes over the
	// interval: relative overhead must shrink as intervals grow.
	withLong, withoutLong := mk(true, 2000), mk(false, 2000)
	ovShort := (withShort - withoutShort) / withoutShort
	ovLong := (withLong - withoutLong) / withoutLong
	if ovLong >= ovShort {
		t.Errorf("overhead must amortize: %.3f%% (short) vs %.3f%% (long)", 100*ovShort, 100*ovLong)
	}
}

func TestTableI(t *testing.T) {
	rows := DefaultConfig(8).TableI()
	if len(rows) != 9 {
		t.Fatalf("Table I has %d rows, want 9", len(rows))
	}
	if rows[0][1] != "2GHz" {
		t.Errorf("frequency row = %v", rows[0])
	}
}

// phasedThread alternates between two code/data behaviours so the
// recorded signatures carry genuine phase structure.
type phasedThread struct {
	iters, emitted int
	homeA, homeB   int
	off            uint64
}

func (t *phasedThread) NextBatch(e *isa.Emitter) bool {
	if t.emitted >= t.iters {
		return false
	}
	end := t.emitted + 50
	if end > t.iters {
		end = t.iters
	}
	for ; t.emitted < end; t.emitted++ {
		phase := (t.emitted / 200) % 2
		if phase == 0 {
			e.Int(0x100, 3)
			e.Load(0x104, AddrAt(t.homeA, t.off))
			e.LoopBranch(0x108, t.emitted, t.iters)
		} else {
			e.FP(0x200, 3)
			e.Load(0x204, AddrAt(t.homeB, t.off))
			e.LoopBranch(0x208, t.emitted, t.iters)
		}
		t.off += 64
	}
	return true
}

// TestOnlineDetectsPhaseStructure checks that the signatures the machine
// records carry the workload's phases: classified offline at (0.3,
// 0.15), an alternating workload yields several phases, and its first
// phase recurs.
func TestOnlineDetectsPhaseStructure(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.IntervalInstructions = 500
	m := New(cfg, []isa.Thread{
		&phasedThread{iters: 4000, homeA: 0, homeB: 1},
		&phasedThread{iters: 4000, homeA: 1, homeB: 0},
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ids := core.ClassifyRecorded(core.DetectorBBV, core.DefaultFootprintSize, 0.3, 0.15, m.RecordsByProc()[0])
	distinct := map[int]bool{}
	for _, id := range ids {
		distinct[id] = true
	}
	if len(distinct) < 2 {
		t.Errorf("alternating workload produced %d phases, want >= 2", len(distinct))
	}
	// Recurring phases: some phase ID must repeat non-contiguously.
	repeats := false
	for i := 2; i < len(ids); i++ {
		if ids[i] == ids[0] && ids[i-1] != ids[0] {
			repeats = true
			break
		}
	}
	if !repeats {
		t.Error("phase 0 never recurs; detector is fragmenting")
	}
}
