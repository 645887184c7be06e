package workloads

import (
	"reflect"
	"testing"

	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
)

// drain runs a thread to completion, returning its instruction stream.
func drain(t *testing.T, th isa.Thread, maxInstr int) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	e := isa.NewEmitter(4096)
	for {
		e.Reset()
		if !th.NextBatch(e) {
			return out
		}
		out = append(out, e.Take()...)
		if len(out) > maxInstr {
			t.Fatalf("thread exceeded %d instructions", maxInstr)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"art", "barnes", "equake", "fmm", "fsstencil", "lu", "ocean", "pagethrash", "radix", "water"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if len(All()) != 10 {
		t.Errorf("All() has %d workloads", len(All()))
	}
	if _, err := ByName("lu"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName must reject unknown names")
	}
}

func TestParseSize(t *testing.T) {
	for name, want := range map[string]Size{"test": SizeTest, "small": SizeSmall, "full": SizeFull} {
		got, err := ParseSize(name)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = (%v, %v)", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("ParseSize must reject unknown sizes")
	}
	if Size(9).String() == "" {
		t.Error("unknown size must still stringify")
	}
}

func TestInputSetsMentionPaperScale(t *testing.T) {
	lu, _ := ByName("lu")
	if got := lu.InputSet(SizeFull); got != "512×512 matrix, 16×16 block" {
		t.Errorf("LU full input = %q (Table II says 512×512, 16×16)", got)
	}
	fmm, _ := ByName("fmm")
	if got := fmm.InputSet(SizeFull); got != "65536 particles" {
		t.Errorf("FMM full input = %q (Table II says 65,536 particles)", got)
	}
}

func TestAllWorkloadsBasicStructure(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				ths := w.Threads(n, SizeTest, 1)
				if len(ths) != n {
					t.Fatalf("n=%d: got %d threads", n, len(ths))
				}
				var barriers []int
				var totals []int
				for _, th := range ths {
					stream := drain(t, th, 50_000_000)
					if len(stream) == 0 {
						t.Fatalf("n=%d: empty thread", n)
					}
					nb, nt := 0, 0
					for _, in := range stream {
						nt++
						switch {
						case in.Op == isa.OpSync:
							nb++
						case in.Op.IsMem():
							home := int(in.Addr >> machine.HomeShift)
							if home < 0 || home >= n {
								t.Fatalf("n=%d: address %#x has home %d", n, in.Addr, home)
							}
						}
					}
					barriers = append(barriers, nb)
					totals = append(totals, nt)
				}
				for i := 1; i < n; i++ {
					if barriers[i] != barriers[0] {
						t.Fatalf("n=%d: thread %d has %d barriers, thread 0 has %d",
							n, i, barriers[i], barriers[0])
					}
				}
				if barriers[0] == 0 && n > 1 {
					t.Errorf("n=%d: no barriers emitted", n)
				}
			}
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			a := drain(t, w.Threads(2, SizeTest, 7)[0], 50_000_000)
			b := drain(t, w.Threads(2, SizeTest, 7)[0], 50_000_000)
			if !reflect.DeepEqual(a, b) {
				t.Error("same seed must reproduce the identical stream")
			}
		})
	}
}

func TestWorkloadSeedChangesStream(t *testing.T) {
	// Seed-sensitive workloads (fmm far-field, art winners, equake mesh)
	// must actually vary with the seed.
	for _, name := range []string{"fmm", "art", "equake"} {
		w, _ := ByName(name)
		a := drain(t, w.Threads(2, SizeTest, 1)[0], 50_000_000)
		b := drain(t, w.Threads(2, SizeTest, 2)[0], 50_000_000)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
	}
}

func TestLUOwnershipCoversAllProcs(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		pr, pc := procGrid(n)
		if pr*pc != n {
			t.Fatalf("procGrid(%d) = %d×%d", n, pr, pc)
		}
		run := &luRun{n: n, G: 8, B: 8, pr: pr, pc: pc, depth: 2}
		seen := map[int]bool{}
		for bi := 0; bi < run.G; bi++ {
			for bj := 0; bj < run.G; bj++ {
				o := run.owner(bi, bj)
				if o < 0 || o >= n {
					t.Fatalf("owner(%d,%d) = %d out of range", bi, bj, o)
				}
				seen[o] = true
			}
		}
		if len(seen) != n {
			t.Errorf("n=%d: only %d owners used", n, len(seen))
		}
	}
}

func TestLUKernelsHaveDistinctPCs(t *testing.T) {
	// The three LU kernels must be distinguishable by the BBV: their
	// branch PCs must not overlap.
	lu, _ := ByName("lu")
	ths := lu.Threads(1, SizeTest, 1)
	stream := drain(t, ths[0], 50_000_000)
	pcs := map[uint32]bool{}
	for _, in := range stream {
		if in.Op == isa.OpBranch {
			pcs[in.PC] = true
		}
	}
	if len(pcs) < 6 {
		t.Errorf("LU uses only %d distinct branch PCs; kernels must differ", len(pcs))
	}
}

func TestWorkloadsRunOnMachine(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			cfg := machine.DefaultConfig(2)
			cfg.IntervalInstructions = 20_000
			m := machine.New(cfg, w.Threads(2, SizeTest, 1))
			sum, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if sum.Instructions == 0 || sum.Cycles == 0 {
				t.Fatalf("empty run: %+v", sum)
			}
			if sum.Intervals == 0 {
				t.Fatalf("no intervals recorded (instrs=%d)", sum.Instructions)
			}
			if err := m.Protocol().CheckInvariants(); err != nil {
				t.Error(err)
			}
			for _, r := range m.Records() {
				if r.CPI() <= 0 {
					t.Errorf("interval %d/%d CPI = %v", r.Proc, r.Index, r.CPI())
				}
				if r.DDS < 0 {
					t.Errorf("negative DDS: %v", r.DDS)
				}
			}
		})
	}
}

func TestRemoteFractionVariesAcrossWorkloads(t *testing.T) {
	// Art's search phase is broadcast-remote; LU at 2 procs is mostly
	// local — the machine-visible locality must reflect that.
	frac := func(name string) float64 {
		w, _ := ByName(name)
		cfg := machine.DefaultConfig(4)
		cfg.IntervalInstructions = 10_000
		m := machine.New(cfg, w.Threads(4, SizeTest, 1))
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var loc, rem uint64
		for _, r := range m.Records() {
			loc += r.LocalAccesses
			rem += r.RemoteAccesses
		}
		return float64(rem) / float64(loc+rem)
	}
	art := frac("art")
	lu := frac("lu")
	if art <= lu {
		t.Errorf("art remote fraction (%v) should exceed lu's (%v)", art, lu)
	}
	if art < 0.3 {
		t.Errorf("art remote fraction %v suspiciously low for a broadcast workload", art)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Register(LU{})
}
