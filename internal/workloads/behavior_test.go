package workloads

import (
	"testing"

	"dsmphase/internal/core"
	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/stats"
)

// Behavioural tests: each workload must actually produce the sharing and
// imbalance structure its doc comment promises, because those structures
// are what the phase detectors are evaluated on.

// streamStats drains a thread and aggregates per-home access counts and
// instruction totals.
type streamStats struct {
	total    int
	byHome   map[int]uint64
	branches int
	syncs    int
}

func statsOf(t *testing.T, th isa.Thread) streamStats {
	t.Helper()
	st := streamStats{byHome: map[int]uint64{}}
	e := isa.NewEmitter(8192)
	for {
		e.Reset()
		if !th.NextBatch(e) {
			return st
		}
		for _, in := range e.Take() {
			st.total++
			switch {
			case in.Op == isa.OpBranch:
				st.branches++
			case in.Op == isa.OpSync:
				st.syncs++
			case in.Op.IsMem():
				st.byHome[int(in.Addr>>machine.HomeShift)]++
			}
		}
		if st.total > 100_000_000 {
			t.Fatal("runaway thread")
		}
	}
}

func TestOceanReductionHitsHomeZero(t *testing.T) {
	w, _ := ByName("ocean")
	// Every thread — including ones owning no low rows — must touch the
	// global accumulator at home 0 during reductions.
	ths := w.Threads(4, SizeTest, 1)
	st := statsOf(t, ths[3]) // owns the top strip
	if st.byHome[0] == 0 {
		t.Error("thread 3 never touched home 0; the reduction accumulator is missing")
	}
	// But its bulk traffic must be to its own home (strip locality).
	if st.byHome[3] < st.byHome[0] {
		t.Errorf("strip-local traffic (%d) should dominate accumulator traffic (%d)",
			st.byHome[3], st.byHome[0])
	}
}

func TestOceanHaloTraffic(t *testing.T) {
	w, _ := ByName("ocean")
	ths := w.Threads(4, SizeTest, 1)
	st := statsOf(t, ths[1]) // interior strip: neighbours 0 and 2
	if st.byHome[0] == 0 || st.byHome[2] == 0 {
		t.Errorf("interior strip must exchange halos with both neighbours: %v", st.byHome)
	}
	// Halo traffic is a small fraction of strip-local traffic.
	if st.byHome[0] > st.byHome[1]/2 {
		t.Errorf("halo traffic (%d) implausibly large vs local (%d)", st.byHome[0], st.byHome[1])
	}
}

func TestRadixPermuteSpreadShrinks(t *testing.T) {
	run := &radixRun{n: 8, p: radixParams{Keys: 1 << 14, Passes: 3, Radix: 256}, seed: 1}
	distinct := func(pass int) int {
		seen := map[int]bool{}
		for k := 0; k < 2048; k++ {
			seen[run.destOwner(2, k, pass)] = true
		}
		return len(seen)
	}
	d0, d2 := distinct(0), distinct(2)
	if d0 <= d2 {
		t.Errorf("destination spread must shrink across passes: pass0=%d pass2=%d", d0, d2)
	}
	if d0 < 4 {
		t.Errorf("first pass should scatter widely, got %d destinations", d0)
	}
}

func TestRadixAllToAllRemote(t *testing.T) {
	w, _ := ByName("radix")
	ths := w.Threads(4, SizeTest, 1)
	st := statsOf(t, ths[0])
	touched := 0
	for h, n := range st.byHome {
		if n > 0 && h != 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("radix permute/scan must reach most other homes, reached %d", touched)
	}
}

func TestEquakeEpicenterImbalance(t *testing.T) {
	w, _ := ByName("equake")
	ths := w.Threads(4, SizeTest, 1)
	// Proc 0 owns the epicenter (first 1/32nd of the mesh); its stream
	// contains the eqSource kernel instructions that other procs lack.
	st0 := statsOf(t, ths[0])
	st3 := statsOf(t, ths[3])
	if st0.total <= st3.total {
		t.Errorf("epicenter owner (%d instrs) must do more work than proc 3 (%d)",
			st0.total, st3.total)
	}
	if st0.syncs != st3.syncs {
		t.Errorf("barrier counts must still match: %d vs %d", st0.syncs, st3.syncs)
	}
}

func TestFMMWindowAlternation(t *testing.T) {
	// Odd timesteps open a 5×5 interaction window versus 3×3 on even
	// ones, so interact items must emit more instructions on odd steps.
	p := FMM{}.params(SizeTest)
	run := &fmmRun{n: 2, p: p, cells: p.GridSide * p.GridSide, ppc: p.Particles / (p.GridSide * p.GridSide), seed: 1}
	count := func(ts int) int {
		e := isa.NewEmitter(8192)
		c := p.GridSide + 1 // an interior-ish cell
		run.emitInteract(e, c, ts)
		return e.Len()
	}
	even, odd := count(0), count(1)
	if odd <= even {
		t.Errorf("5×5 window (odd ts: %d instrs) must exceed 3×3 (even ts: %d)", odd, even)
	}
}

func TestArtWinnerSkew(t *testing.T) {
	// Winners are min-of-two-draws: low neuron indices must win more
	// often than high ones, producing hot homes.
	run := &artRun{n: 4, p: Art{}.params(SizeTest), seed: 1}
	m := run.p.Neurons
	counts := make([]int, m)
	for s := 0; s < 4000; s++ {
		counts[run.winner(s%4, s/1000, s)]++
	}
	lowHalf, highHalf := 0, 0
	for i, c := range counts {
		if i < m/2 {
			lowHalf += c
		} else {
			highHalf += c
		}
	}
	if lowHalf <= highHalf {
		t.Errorf("winner distribution not skewed low: %d vs %d", lowHalf, highHalf)
	}
}

func TestArtSamplesScaleDown(t *testing.T) {
	// Per-thread work must shrink as the system grows (data-parallel
	// sample division) — the property whose absence broke scaling.
	w, _ := ByName("art")
	at := func(n int) int {
		return statsOf(t, w.Threads(n, SizeTest, 1)[0]).total
	}
	if t2, t8 := at(2), at(8); t8 >= t2 {
		t.Errorf("per-thread work must shrink with n: %d @2P vs %d @8P", t2, t8)
	}
}

func TestLUWorkShrinksAcrossSteps(t *testing.T) {
	// The trailing submatrix shrinks: the first third of a thread's steps
	// must carry more instructions than the last third.
	w, _ := ByName("lu")
	th := w.Threads(2, SizeTest, 1)[0].(*script)
	third := len(th.steps) / 3
	count := func(steps []step) int {
		e := isa.NewEmitter(8192)
		n := 0
		for _, s := range steps {
			if s.block == nil {
				continue
			}
			e.Reset()
			s.block.Emit(th.ctx, e, s.it)
			n += e.Len()
		}
		return n
	}
	early := count(th.steps[:third])
	late := count(th.steps[len(th.steps)-third:])
	if early <= late {
		t.Errorf("LU work must shrink over time: early=%d late=%d", early, late)
	}
}

func TestBarnesForceSkewImbalance(t *testing.T) {
	// The force phase gives thread 0 barnesSkew% extra descents with a
	// linear falloff — thread 0 must do measurably more work than the
	// last thread while barrier counts stay identical.
	w, _ := ByName("barnes")
	ths := w.Threads(4, SizeTest, 1)
	st0 := statsOf(t, ths[0])
	st3 := statsOf(t, ths[3])
	if st0.total <= st3.total {
		t.Errorf("skewed thread 0 (%d instrs) must out-work thread 3 (%d)", st0.total, st3.total)
	}
	if st0.syncs != st3.syncs {
		t.Errorf("barrier counts must still match: %d vs %d", st0.syncs, st3.syncs)
	}
}

func TestBarnesTreeTrafficReachesAllHomes(t *testing.T) {
	// Tree nodes are hash-distributed (node k lives on home k mod n), so
	// a thread's descents must touch every home — the irregular sharing
	// signature that distinguishes barnes from the strip-partitioned
	// codes.
	w, _ := ByName("barnes")
	ths := w.Threads(4, SizeTest, 1)
	st := statsOf(t, ths[2])
	for h := 0; h < 4; h++ {
		if st.byHome[h] == 0 {
			t.Errorf("thread 2 never touched home %d: %v", h, st.byHome)
		}
	}
}

func TestWaterBroadcastReachesAllPeers(t *testing.T) {
	// The inter-molecular phase reads every peer's position block, but
	// the private intraf/update sweeps must still dominate the thread's
	// own-home traffic (long local phases, all-to-all read bursts).
	w, _ := ByName("water")
	ths := w.Threads(4, SizeTest, 1)
	st := statsOf(t, ths[1])
	for h := 0; h < 4; h++ {
		if st.byHome[h] == 0 {
			t.Errorf("thread 1 never touched home %d: %v", h, st.byHome)
		}
	}
	if st.byHome[1] <= st.byHome[2] {
		t.Errorf("own-home traffic (%d) must dominate a peer's (%d)", st.byHome[1], st.byHome[2])
	}
}

// phaseCoV runs a workload, classifies its recorded intervals with the
// BBV detector and returns the phase-conditioned identifier CoV next to
// the unconditioned CoV of the same CPI series (proc 0).
func phaseCoV(t *testing.T, name string, interval uint64) (withPhases, without float64, phases int) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(2)
	cfg.IntervalInstructions = interval
	m := machine.New(cfg, w.Threads(2, SizeTest, 1))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	sigs := m.RecordsByProc()[0]
	if len(sigs) < 4 {
		t.Fatalf("%s: only %d intervals recorded", name, len(sigs))
	}
	ids := core.ClassifyRecorded(core.DetectorBBV, 16, 0.05, 0, sigs)
	cpis := make([]float64, len(sigs))
	for i, s := range sigs {
		cpis[i] = s.CPI()
	}
	cov, n := stats.IdentifierCoV(ids, cpis)
	return cov, stats.CoV(cpis), n
}

func TestBarnesPhaseContrast(t *testing.T) {
	// Barnes alternates build/force/update (plus periodic reductions):
	// the BBV detector must find more than one phase, and conditioning
	// CPI on the phase IDs must shrink the CoV — the Table II property
	// the workload exists to exhibit.
	cov, raw, phases := phaseCoV(t, "barnes", 2_000)
	if phases < 2 {
		t.Fatalf("BBV found only %d phase(s)", phases)
	}
	if cov >= raw {
		t.Errorf("phase-conditioned CoV %v must beat unconditioned %v", cov, raw)
	}
}

func TestWaterPhaseContrast(t *testing.T) {
	cov, raw, phases := phaseCoV(t, "water", 2_000)
	if phases < 2 {
		t.Fatalf("BBV found only %d phase(s)", phases)
	}
	if cov >= raw {
		t.Errorf("phase-conditioned CoV %v must beat unconditioned %v", cov, raw)
	}
}

func TestEquakeNeighbourLocality(t *testing.T) {
	run := &equakeRun{n: 8, p: Equake{}.params(SizeTest), seed: 1}
	// Most neighbours of an interior node stay within nearby indices.
	local, far := 0, 0
	for v := 1000; v < 1100; v++ {
		for s := 0; s < run.p.Degree; s++ {
			u := run.neighbour(v, s)
			d := u - v
			if d < 0 {
				d = -d
			}
			if d <= 20 {
				local++
			} else {
				far++
			}
		}
	}
	if local <= far*5 {
		t.Errorf("mesh must be mostly local: local=%d far=%d", local, far)
	}
	if far == 0 {
		t.Error("unstructured fill-in must produce some long-range edges")
	}
}
