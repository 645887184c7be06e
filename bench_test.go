package dsmphase

// Micro-benchmarks of what no other measurement times: the Table I
// machine, workload generation, the DDS overhead model, the ablations no
// grid carries, and the detector hot paths. Benchmarks run reduced
// inputs so `go test -bench=.` finishes in minutes. The figure grids,
// the engine, the threshold sweep and the ablation and tuning grids are
// timed end to end and per layer by the repository benchmark (bench/,
// `make bench-ab`), and their numbers are pinned by the cmd/experiments
// scorecard tests.
//
//	BenchmarkTableI_*    — the simulated machine itself (paired by make bench-ab)
//	BenchmarkTableII_*   — workload instruction-stream generation
//	BenchmarkOverhead_*  — the §III-B DDS bandwidth model
//	BenchmarkAblation_*  — design-choice ablations
//	Benchmark<hot path>  — detector and substrate micro-benchmarks

import (
	"fmt"
	"testing"

	"dsmphase/internal/cache"
	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/cpu"
	"dsmphase/internal/harness"
	"dsmphase/internal/isa"
	"dsmphase/internal/machine"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
	"dsmphase/internal/stats"
	"dsmphase/internal/workloads"
)

// benchRC builds the standard reduced-scale run for figure benchmarks.
func benchRC(app string, procs int) harness.RunConfig {
	return harness.RunConfig{
		Workload:             app,
		Size:                 workloads.SizeTest,
		Procs:                procs,
		IntervalInstructions: 40_000 / uint64(procs),
		Seed:                 1,
	}
}

// simulateOnce runs one simulation and reports simulator throughput.
func simulateOnce(b *testing.B, rc harness.RunConfig) (*machine.Machine, machine.Summary) {
	b.Helper()
	m, sum, err := harness.Simulate(rc)
	if err != nil {
		b.Fatal(err)
	}
	return m, sum
}

// ---- Table I: the simulated machine ----

// BenchmarkTableI_MachineThroughput measures end-to-end simulation speed
// of the Table I system (instructions simulated per second) at two node
// counts; `make bench-ab` pairs its ns/op against a base revision. The
// 32P case is where scheduler overhead dominates: the naive
// per-instruction min-scan costs O(P) per committed instruction.
func BenchmarkTableI_MachineThroughput(b *testing.B) {
	// The directory sub-benchmarks keep their bare "8P"/"32P" names, so
	// every recorded comparison names the same series; the ivy variants
	// ride alongside under a protocol suffix.
	for _, proto := range coherence.Kinds() {
		for _, procs := range []int{8, 32} {
			name := fmt.Sprintf("%dP", procs)
			if proto != coherence.KindDirectory {
				name += "/" + proto.String()
			}
			b.Run(name, func(b *testing.B) {
				rc := benchRC("lu", procs)
				rc.Protocol = proto
				b.ReportAllocs()
				var instrs uint64
				for i := 0; i < b.N; i++ {
					_, sum := simulateOnce(b, rc)
					instrs += sum.Instructions
				}
				b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// BenchmarkTableI_ProtocolAccess measures a single coherence transaction
// on the Table I memory system, per backend.
func BenchmarkTableI_ProtocolAccess(b *testing.B) {
	params := coherence.Params{
		N:     8,
		L1:    cache.L1Default(),
		L2:    cache.L2Default(),
		Mem:   memory.DefaultConfig(),
		Costs: coherence.DefaultCosts(),
		Home:  coherence.NewHomeMap(0, 8), // line (or page) % 8
	}
	for _, proto := range coherence.Kinds() {
		b.Run(proto.String(), func(b *testing.B) {
			p := params
			p.Net = network.New(8, network.DefaultConfig())
			var eng coherence.Protocol
			switch proto {
			case coherence.KindDirectory:
				eng = coherence.NewDirectory(p)
			case coherence.KindIVY:
				eng = coherence.NewIVY(p)
			default:
				b.Fatalf("unknown protocol %v", proto)
			}
			var t uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := eng.Access(t, i%8, uint64(i%4096)*32, i%4 == 0)
				t = r.Done
			}
		})
	}
}

// BenchmarkTableI_NetworkSend measures hypercube message injection.
func BenchmarkTableI_NetworkSend(b *testing.B) {
	h := network.New(32, network.DefaultConfig())
	var t uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = h.Send(t, i%32, (i*7+5)%32, 40)
	}
}

// ---- Table II: the applications ----

func BenchmarkTableII_Generation(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				e := isa.NewEmitter(1 << 16)
				for _, th := range w.Threads(4, workloads.SizeTest, 1) {
					for {
						e.Reset()
						if !th.NextBatch(e) {
							break
						}
						instrs += uint64(e.Len())
					}
				}
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// ---- §III-B: DDS exchange overhead model ----

func BenchmarkOverhead_Model(b *testing.B) {
	o := core.PaperOverheadConfig()
	var bw float64
	for i := 0; i < b.N; i++ {
		bw = o.BandwidthPerProcessor()
	}
	b.ReportMetric(bw/1e3, "kB/s")
}

// BenchmarkOverhead_MeasuredGather compares simulated runtime with the
// DDS gather charged versus free, measuring the mechanism's real cost on
// the simulated network (the paper argues it is negligible). The two
// settings are a named Spec grid; "charge=true" is the baseline
// hardware, "charge=false" its keyed variant.
func BenchmarkOverhead_MeasuredGather(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []harness.Option
	}{
		{"charge=true", nil},
		{"charge=false", []harness.Option{
			harness.WithTweak("free-gather", "free-gather",
				func(c *machine.Config) { c.ChargeDDSGather = false }),
			harness.WithoutBaseline(),
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			spec := harness.NewSpec(append([]harness.Option{
				harness.WithApps("lu"),
				harness.WithProcs(8),
				harness.WithDetectors(core.DetectorBBVDDV),
				harness.WithSize(workloads.SizeTest),
				harness.WithInterval(40_000),
				harness.WithSeed(1),
			}, variant.opts...)...)
			var cycles float64
			for i := 0; i < b.N; i++ {
				rep := spec.Run(harness.Options{Parallel: 1})
				if err := rep.FirstError(); err != nil {
					b.Fatal(err)
				}
				cycles = rep.Configs[0].Curves[0].Summary.Cycles
			}
			b.ReportMetric(cycles, "simcycles")
		})
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblation_Detector compares all three detector kinds on the
// same workload, reporting classification quality.
func BenchmarkAblation_Detector(b *testing.B) {
	for _, kind := range []core.DetectorKind{core.DetectorWSS, core.DetectorBBV, core.DetectorDDS, core.DetectorBBVDDV} {
		b.Run(kind.String(), func(b *testing.B) {
			rc := benchRC("lu", 8)
			var lastCoV float64
			for i := 0; i < b.N; i++ {
				m, sum := simulateOnce(b, rc)
				c := harness.SweepMachine(m, rc, kind, sum)
				lastCoV = c.Curve.CoVAt(25)
			}
			b.ReportMetric(lastCoV, "CoV@25phases")
		})
	}
}

// BenchmarkAblation_FootprintSize varies the footprint-table capacity
// around the paper's 32 entries.
func BenchmarkAblation_FootprintSize(b *testing.B) {
	rc := benchRC("fmm", 8)
	m, sum, err := harness.Simulate(rc)
	if err != nil {
		b.Fatal(err)
	}
	_ = sum
	recs := m.RecordsByProc()
	for _, size := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			sc := harness.DefaultSweep(core.DetectorBBVDDV, 4)
			sc.TableSize = size
			var env stats.Curve
			for i := 0; i < b.N; i++ {
				env = stats.LowerEnvelope(harness.Sweep(recs, sc))
			}
			b.ReportMetric(env.CoVAt(25), "CoV@25phases")
		})
	}
}

// BenchmarkAblation_SweepVsResim quantifies the key harness design
// choice: replaying classification over recorded signatures versus
// re-simulating per threshold.
func BenchmarkAblation_SweepVsResim(b *testing.B) {
	rc := benchRC("lu", 4)
	thresholds := harness.DefaultBBVThresholds(20)
	b.Run("offline-sweep", func(b *testing.B) {
		m, _, err := harness.Simulate(rc)
		if err != nil {
			b.Fatal(err)
		}
		recs := m.RecordsByProc()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			harness.Sweep(recs, harness.SweepConfig{
				Kind: core.DetectorBBV, BBVThresholds: thresholds,
			})
		}
	})
	b.Run("resimulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for range thresholds {
				// One full simulation per threshold — what the offline
				// sweep avoids.
				simulateOnce(b, rc)
			}
		}
	})
}

// ---- Micro-benchmarks of detector hot paths ----

func BenchmarkManhattan(b *testing.B) {
	x := make([]float64, 32)
	y := make([]float64, 32)
	for i := range x {
		x[i] = float64(i) / 32
		y[i] = float64(31-i) / 32
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Manhattan(x, y)
	}
}

func BenchmarkAccumulator(b *testing.B) {
	a := core.NewAccumulator(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Instruction()
		if i%5 == 0 {
			a.Branch(uint32(i))
		}
	}
}

func BenchmarkFootprintClassify(b *testing.B) {
	ft := core.NewFootprintTable(32, 0.1)
	sig := make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sig {
			sig[j] = 0
		}
		sig[i%32] = 1
		ft.Classify(sig, 0)
	}
}

func BenchmarkFrequencyMatrix(b *testing.B) {
	f := core.NewFrequencyMatrix(32)
	buf := make([]uint64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Access(i % 32)
		if i%1024 == 0 {
			buf = f.QueryAndReset(i%32, buf)
		}
	}
}

func BenchmarkComputeDDS(b *testing.B) {
	n := 32
	net := network.New(n, network.DefaultConfig())
	d := core.NewDistanceMatrix(n, net.Hops)
	freq := make([]uint64, n)
	cont := make([]uint64, n)
	for i := 0; i < n; i++ {
		freq[i] = uint64(i * 100)
		cont[i] = uint64(i * 500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeDDS(3, freq, cont, d, core.DDSOptions{})
	}
}

func BenchmarkGshare(b *testing.B) {
	g := cpu.NewGshare(2048, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(uint32(i*4), i%3 != 0)
	}
}
