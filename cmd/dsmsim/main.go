// Command dsmsim runs one workload on the simulated DSM multiprocessor
// and reports machine-level statistics.
//
//	dsmsim -config                 # print Table I (simulated architecture)
//	dsmsim -list                   # print Table II (applications and inputs)
//	dsmsim -app lu -procs 8 -size small
//	dsmsim -app pagethrash -protocol ivy  # page-granular coherence backend
//	dsmsim -workload-file my.wdl -app my-workload   # DSL-defined workload
//	dsmsim -app lu -access-trace-out lu.jsonl       # capture for re-ingestion
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"dsmphase"
	"dsmphase/internal/coherence"
	"dsmphase/internal/isa"
	"dsmphase/internal/network"
	"dsmphase/internal/prof"
	"dsmphase/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "lu", "workload: lu, fmm, art or equake")
		procsN   = flag.Int("procs", 8, "node count (power of two, ≤64)")
		sizeArg  = flag.String("size", "small", "input scale: test, small or full")
		interval = flag.Uint64("interval", 0, "per-processor sampling interval (0 = paper's 3M/procs)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		protocol = flag.String("protocol", "directory", "coherence backend: directory or ivy")
		config   = flag.Bool("config", false, "print the simulated architecture (Table I) and exit")
		list     = flag.Bool("list", false, "print the applications (Table II) and exit")
		traceOut = flag.String("trace-out", "", "write interval signatures as JSONL to this file")
		csvOut   = flag.String("csv-out", "", "write an interval summary CSV to this file")
		topology = flag.String("topology", "hypercube", "interconnect: hypercube (Table I) or mesh (ablation)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		accesses = flag.String("access-trace-out", "", "write the run's per-processor address trace as JSONL to this file (re-ingestable via -workload-file)")
	)
	var workloadFiles listFlag
	flag.Var(&workloadFiles, "workload-file", "register a workload DSL spec file (repeatable); its name becomes valid in -app")
	flag.Parse()
	for _, path := range workloadFiles {
		sw, err := dsmphase.LoadWorkloadSpecFile(path)
		if err != nil {
			fatal(err)
		}
		if err := sw.Register(); err != nil {
			fatal(err)
		}
	}

	if *config {
		printTableI(*procsN)
		return
	}
	if *list {
		printTableII()
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	// fatal exits via os.Exit, which skips defers; route it through
	// stopProfile so a failing run still flushes usable profiles.
	stopProfile = stopProf
	defer stopProf()

	size, err := dsmphase.ParseSize(*sizeArg)
	if err != nil {
		fatal(err)
	}
	proto, err := dsmphase.ParseProtocolKind(*protocol)
	if err != nil {
		fatal(err)
	}
	rc := dsmphase.RunConfig{
		Workload:             *app,
		Size:                 size,
		Procs:                *procsN,
		IntervalInstructions: *interval,
		Seed:                 *seed,
		Protocol:             proto,
	}
	if *topology != "hypercube" {
		kind := network.Kind(*topology)
		rc.Tweak = func(c *dsmphase.MachineConfig) { c.Topology = kind }
	}
	m, sum, err := dsmphase.Simulate(rc)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("run: %s, %d processors, %s input, seed %d\n\n", *app, *procsN, size, *seed)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "committed instructions\t%d\n", sum.Instructions)
	fmt.Fprintf(w, "synchronization instrs\t%d\n", sum.SyncInstrs)
	fmt.Fprintf(w, "cycles\t%.0f\n", sum.Cycles)
	fmt.Fprintf(w, "aggregate IPC\t%.3f\n", sum.IPC)
	fmt.Fprintf(w, "barriers\t%d\n", sum.Barriers)
	fmt.Fprintf(w, "sampling intervals\t%d\n", sum.Intervals)
	fmt.Fprintf(w, "branch prediction accuracy\t%.2f%%\n", 100*m.GshareAccuracy())

	writeProtocolStats(w, proto, m.Protocol().Stats())

	ns := m.Network().Stats()
	fmt.Fprintf(w, "network messages / bytes\t%d / %d\n", ns.Messages, ns.Bytes)
	if ns.Messages > 0 {
		fmt.Fprintf(w, "avg message latency\t%.1f cycles\n", float64(ns.TotalLatency)/float64(ns.Messages))
		fmt.Fprintf(w, "avg hops\t%.2f\n", float64(ns.TotalHops)/float64(ns.Messages))
	}
	fmt.Fprintf(w, "link queue cycles\t%d\n", ns.QueueCycles)
	if err := w.Flush(); err != nil {
		fatal(err)
	}

	// Per-interval locality summary.
	var loc, rem uint64
	for _, r := range m.Records() {
		loc += r.LocalAccesses
		rem += r.RemoteAccesses
	}
	if loc+rem > 0 {
		fmt.Printf("\nmemory locality: %.1f%% local, %.1f%% remote\n",
			100*float64(loc)/float64(loc+rem), 100*float64(rem)/float64(loc+rem))
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, m, trace.WriteJSONL); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote JSONL trace to %s\n", *traceOut)
	}
	if *csvOut != "" {
		if err := writeTrace(*csvOut, m, trace.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote CSV summary to %s\n", *csvOut)
	}
	if *accesses != "" {
		n, err := writeAccessTrace(*accesses, *app, *procsN, size, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d address-trace records to %s\n", n, *accesses)
	}
}

// writeProtocolStats writes the coherence counters that apply to the
// run's backend as tab-separated rows: line-level cache and directory
// counters for the directory backend; resident-page hits, manager
// trips, forwards and the page counters for IVY, which never moves
// L2Hits, Invalidations or Writebacks.
func writeProtocolStats(w io.Writer, kind coherence.Kind, ps coherence.Stats) {
	fmt.Fprintf(w, "loads / stores\t%d / %d\n", ps.Loads, ps.Stores)
	switch kind {
	case coherence.KindIVY:
		fmt.Fprintf(w, "resident-page hits\t%d\n", ps.L1Hits)
		fmt.Fprintf(w, "manager trips (remote)\t%d (%d)\n", ps.DirectoryTrips, ps.RemoteTrips)
		fmt.Fprintf(w, "forwards\t%d\n", ps.Forwards)
		fmt.Fprintf(w, "page faults / transfers\t%d / %d\n", ps.PageFaults, ps.PageTransfers)
		fmt.Fprintf(w, "page invalidations\t%d\n", ps.PageInvalidations)
	default:
		fmt.Fprintf(w, "L1 hits / L2 hits\t%d / %d\n", ps.L1Hits, ps.L2Hits)
		fmt.Fprintf(w, "directory trips (remote)\t%d (%d)\n", ps.DirectoryTrips, ps.RemoteTrips)
		fmt.Fprintf(w, "invalidations / forwards\t%d / %d\n", ps.Invalidations, ps.Forwards)
		fmt.Fprintf(w, "writebacks\t%d\n", ps.Writebacks)
	}
}

// writeAccessTrace captures the run's full instruction streams as
// address-trace records. Workload streams are pure functions of
// (procs, size, seed), so regenerating the threads reproduces exactly
// what the simulation consumed.
func writeAccessTrace(path, app string, procs int, size dsmphase.Size, seed uint64) (int, error) {
	wl, err := dsmphase.WorkloadByName(app)
	if err != nil {
		return 0, err
	}
	var recs []dsmphase.TraceAccess
	e := isa.NewEmitter(4096)
	for tid, th := range wl.Threads(procs, size, seed) {
		for th.NextBatch(e) {
			for _, in := range e.Take() {
				recs = append(recs, trace.AccessFromInst(tid, in))
			}
			e.Reset()
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := dsmphase.WriteAccessTrace(f, recs); err != nil {
		f.Close()
		return 0, err
	}
	return len(recs), f.Close()
}

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// writeTrace dumps the machine's interval records with the given
// serializer.
func writeTrace(path string, m *dsmphase.Machine,
	write func(w io.Writer, recs []dsmphase.IntervalSignature) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, m.Records()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printTableI(procs int) {
	fmt.Println("Table I: summary of simulated architecture")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, row := range dsmphase.DefaultMachineConfig(procs).TableI() {
		fmt.Fprintf(w, "%s\t%s\n", row[0], row[1])
	}
	w.Flush()
}

func printTableII() {
	fmt.Println("Table II: applications used in the experiments")
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Application\tInput Set (full)\tSynthetic model\n")
	for _, wl := range dsmphase.Workloads() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", wl.Name(), wl.InputSet(dsmphase.SizeFull), wl.Description())
	}
	w.Flush()
}

// stopProfile flushes any active profiles before a fatal exit; main
// swaps in the real stopper once profiling starts. The success path
// stops profiling via defer instead, so this runs at most once.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "dsmsim:", err)
	os.Exit(1)
}
