package dsmphase

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations called out in DESIGN.md §6 and micro-benchmarks of
// the hot paths. Benchmarks run reduced inputs so `go test -bench=.`
// finishes in minutes; regenerate paper-scale data with cmd/experiments
// (-preset paper, or -grids figure4 -format text -size full -interval
// 3000000 for one figure's curves).
//
//	BenchmarkTableI_*    — the simulated machine itself (throughput)
//	BenchmarkTableII_*   — workload instruction-stream generation
//	BenchmarkFigure2_*   — baseline BBV CoV curves at 2/8/32 nodes
//	BenchmarkFigure4_*   — BBV vs BBV+DDV at 8/32 nodes
//	BenchmarkSweep_*     — the offline threshold sweep alone
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
// of the Table I system (instructions simulated per second) at the two
// node counts the perf trajectory tracks (make bench-json /
// BENCH_baseline.json). The 32P case is where scheduler overhead
// dominates: the naive per-instruction min-scan costs O(P) per
// committed instruction.
func BenchmarkTableI_MachineThroughput(b *testing.B) {
	// The directory sub-benchmarks keep their bare "8P"/"32P" names so
	// the BENCH_baseline.json throughput guard tracks the same series;
	// the ivy variants ride alongside under a protocol suffix.
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

// ---- Figure 2: baseline BBV degradation with node count ----

func BenchmarkFigure2(b *testing.B) {
	for _, app := range []string{"fmm", "lu", "equake", "art"} {
		for _, procs := range []int{2, 8, 32} {
			name := fmt.Sprintf("%s/%dP", app, procs)
			b.Run(name, func(b *testing.B) {
				rc := benchRC(app, procs)
				var lastCoV float64
				for i := 0; i < b.N; i++ {
					m, sum := simulateOnce(b, rc)
					c := harness.SweepMachine(m, rc, core.DetectorBBV, sum)
					lastCoV = c.Curve.CoVAt(25)
				}
				b.ReportMetric(lastCoV, "CoV@25phases")
			})
		}
	}
}

// ---- Figure 4: BBV vs BBV+DDV ----

func BenchmarkFigure4(b *testing.B) {
	for _, app := range []string{"fmm", "lu", "equake", "art"} {
		for _, procs := range []int{8, 32} {
			for _, kind := range []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV} {
				name := fmt.Sprintf("%s/%dP/%s", app, procs, kind)
				b.Run(name, func(b *testing.B) {
					rc := benchRC(app, procs)
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
	}
}

// ---- The offline threshold sweep ----

// sweepSink keeps the benchmarked sweeps' results live.
var sweepSink []stats.CurvePoint

// BenchmarkSweep_ShortInterval times the offline threshold sweep alone
// on the figure4 panel cells at a 40k total interval (test inputs), the
// configuration in which the sweep is the largest layer of a report.
// The simulations run once, outside the timer; each iteration sweeps
// every cell of one detector over its default threshold grid, and
// ns/classification divides by the (setting × interval) count.
func BenchmarkSweep_ShortInterval(b *testing.B) {
	g, err := harness.BuildGrid("figure4", harness.GridParams{Size: workloads.SizeTest, Interval: 40_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	type cell struct {
		recs [][]core.IntervalSignature
		sc   harness.SweepConfig
	}
	cells := map[core.DetectorKind][]cell{}
	classifications := map[core.DetectorKind]int{}
	sims := map[string]*machine.Machine{}
	for _, c := range g.Spec.Plan().Cells() {
		key := fmt.Sprintf("%s/%dP/%d", c.Run.Workload, c.Run.Procs, c.Run.Seed)
		m, ok := sims[key]
		if !ok {
			m, _ = simulateOnce(b, c.Run)
			sims[key] = m
		}
		sc := harness.DefaultSweep(c.Kind, 1+float64(m.Network().Diameter()))
		settings := len(sc.BBVThresholds)
		if c.Kind != core.DetectorBBV {
			settings *= len(sc.DDSThresholds)
		}
		recs := m.RecordsByProc()
		for _, rs := range recs {
			classifications[c.Kind] += settings * len(rs)
		}
		cells[c.Kind] = append(cells[c.Kind], cell{recs, sc})
	}
	for _, kind := range []core.DetectorKind{core.DetectorBBV, core.DetectorBBVDDV} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range cells[kind] {
					sweepSink = harness.Sweep(c.recs, c.sc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*classifications[kind]), "ns/classification")
		})
	}
}

// ---- The sharded experiment engine ----

// BenchmarkFigureEngine runs the Figure 4 multi-workload sweep (all
// four applications, 8 nodes, BBV and BBV+DDV over shared simulations)
// through the engine at several worker counts. workers=1 is the serial
// baseline; higher counts show the worker-pool speedup on multi-core
// hosts (the curves themselves are identical at every setting).
func BenchmarkFigureEngine(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := harness.NewSpec(
				harness.WithProcs(8),
				harness.WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
				harness.WithSize(workloads.SizeTest),
				harness.WithInterval(40_000),
				harness.WithSeed(1),
			)
			for i := 0; i < b.N; i++ {
				rep := spec.Run(harness.Options{Parallel: workers})
				if err := rep.FirstError(); err != nil {
					b.Fatal(err)
				}
				if res := rep.Curves(); len(res) != 8 {
					b.Fatalf("got %d curves, want 8", len(res))
				}
			}
		})
	}
}

// BenchmarkEngineRecordCache quantifies the memoizing record cache: the
// same four-detector sweep with the cache (one simulation shared by all
// kinds) versus defeated (distinct seeds force four simulations).
func BenchmarkEngineRecordCache(b *testing.B) {
	kinds := []core.DetectorKind{
		core.DetectorWSS, core.DetectorBBV, core.DetectorDDS, core.DetectorBBVDDV,
	}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := harness.NewPlan().Add(benchRC("lu", 8), kinds...)
			if err := harness.FirstError(harness.RunPlan(plan, harness.Options{Parallel: 1})); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resimulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := harness.NewPlan()
			for s, k := range kinds {
				rc := benchRC("lu", 8)
				rc.Seed = harness.DeriveSeed(rc.Seed, rc.Workload, rc.Procs, s)
				plan.Add(rc, k)
			}
			if err := harness.FirstError(harness.RunPlan(plan, harness.Options{Parallel: 1})); err != nil {
				b.Fatal(err)
			}
		}
	})
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
			spec := benchSpec("lu", 8, core.DetectorBBVDDV, variant.opts...)
			var cycles float64
			for i := 0; i < b.N; i++ {
				rep := runBenchSpec(b, spec)
				cycles = rep.Configs[0].Curves[0].Summary.Cycles
			}
			b.ReportMetric(cycles, "simcycles")
		})
	}
}

// ---- Ablations (DESIGN.md §6) ----
//
// The design-choice ablations are expressed as named Spec grids: each
// variant is a WithTweak(name, key, fn) row, TweakKey-cached so every
// detector sweeping a variant shares one simulation, and quality is
// read from the aggregated Report band.

// benchSpec builds a one-configuration Spec at the standard reduced
// benchmark scale, plus any variant options.
func benchSpec(app string, procs int, kind core.DetectorKind, extra ...harness.Option) *harness.Spec {
	return harness.NewSpec(append([]harness.Option{
		harness.WithApps(app),
		harness.WithProcs(procs),
		harness.WithDetectors(kind),
		harness.WithSize(workloads.SizeTest),
		harness.WithInterval(40_000),
		harness.WithSeed(1),
	}, extra...)...)
}

// runBenchSpec executes a Spec serially and fails the benchmark on any
// cell error.
func runBenchSpec(b *testing.B, spec *harness.Spec) *harness.Report {
	b.Helper()
	rep := spec.Run(harness.Options{Parallel: 1})
	if err := rep.FirstError(); err != nil {
		b.Fatal(err)
	}
	return rep
}

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

// BenchmarkAblation_Contention removes the contention vector C from the
// DDS product — the "no-contention" grid row.
func BenchmarkAblation_Contention(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []harness.Option
	}{
		{"ignoreC=false", nil},
		{"ignoreC=true", []harness.Option{
			harness.WithTweak("no-contention", "dds-no-contention",
				func(c *machine.Config) { c.DDS.IgnoreContention = true }),
			harness.WithoutBaseline(),
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			spec := benchSpec("art", 8, core.DetectorBBVDDV, variant.opts...)
			var lastCoV float64
			for i := 0; i < b.N; i++ {
				lastCoV = runBenchSpec(b, spec).Configs[0].Band.MeanAt(25)
			}
			b.ReportMetric(lastCoV, "CoV@25phases")
		})
	}
}

// BenchmarkAblation_Distance replaces the hop-based distance matrix with
// all-ones — the "uniform-distance" grid row.
func BenchmarkAblation_Distance(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []harness.Option
	}{
		{"uniformD=false", nil},
		{"uniformD=true", []harness.Option{
			harness.WithTweak("uniform-distance", "uniform-distance",
				func(c *machine.Config) { c.UniformDistance = true }),
			harness.WithoutBaseline(),
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			spec := benchSpec("lu", 8, core.DetectorBBVDDV, variant.opts...)
			var lastCoV float64
			for i := 0; i < b.N; i++ {
				lastCoV = runBenchSpec(b, spec).Configs[0].Band.MeanAt(25)
			}
			b.ReportMetric(lastCoV, "CoV@25phases")
		})
	}
}

// BenchmarkAblation_Grid runs the full DDS-design grid — baseline plus
// both DDS tweaks, two detectors each — as one Spec, measuring the
// engine's TweakKey record-cache sharing (three simulations serve six
// sweeps).
func BenchmarkAblation_Grid(b *testing.B) {
	spec := benchSpec("lu", 8, core.DetectorBBVDDV,
		harness.WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		harness.WithTweak("no-contention", "dds-no-contention",
			func(c *machine.Config) { c.DDS.IgnoreContention = true }),
		harness.WithTweak("uniform-distance", "uniform-distance",
			func(c *machine.Config) { c.UniformDistance = true }),
	)
	if got, want := spec.Plan().Simulations(), 3; got != want {
		b.Fatalf("grid runs %d simulations, want %d (TweakKey sharing)", got, want)
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		rep := runBenchSpec(b, spec)
		// The headline ablation read-out: how much the contention vector
		// matters at 25 phases.
		base, noC := rep.Configs[1].Band.MeanAt(25), rep.Configs[3].Band.MeanAt(25)
		gap = noC - base
	}
	b.ReportMetric(gap, "ΔCoV@25(no-contention)")
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

// BenchmarkAblation_TuningLoop runs the closed adaptive-tuning loop —
// detector × predictor × controller on live simulations — and reports
// the headline ablation read-out: how much the DDS-aware detector's win
// rate exceeds the BBV baseline's under the best predictor.
func BenchmarkAblation_TuningLoop(b *testing.B) {
	spec := benchSpec("lu", 4, core.DetectorBBVDDV,
		harness.WithDetectors(core.DetectorBBV, core.DetectorBBVDDV),
		harness.WithPredictors("last-phase", "markov", "run-length"),
		harness.WithControllers(harness.ControllerSpec{Name: "trial-1", TrialsPerConfig: 1}),
	)
	var gap float64
	for i := 0; i < b.N; i++ {
		results, _, err := harness.RunGrids([]harness.NamedGrid{{Name: "tuning", Tuning: true, Spec: spec}}, 0, 1, harness.Options{Parallel: 1}, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := spec.AssembleTuning(results[0])
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.FirstError(); err != nil {
			b.Fatal(err)
		}
		best := func(kind core.DetectorKind) float64 {
			win := 0.0
			for _, c := range rep.Configs {
				if c.Config.Detector == kind && c.WinRate.Mean > win {
					win = c.WinRate.Mean
				}
			}
			return win
		}
		gap = best(core.DetectorBBVDDV) - best(core.DetectorBBV)
	}
	b.ReportMetric(gap, "Δwin-rate(DDV-BBV)")
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
