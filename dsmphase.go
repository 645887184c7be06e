// Package dsmphase reproduces İpek et al., "Dynamic Program Phase
// Detection in Distributed Shared-Memory Multiprocessors" (IPDPS NSF NGS
// Workshop, 2006): hardware phase detection for DSM multiprocessors.
//
// The package is the public facade over three layers:
//
//   - the phase detectors: the BBV (basic block vector) baseline of
//     Sherwood et al. and the paper's BBV+DDV extension, which augments
//     the code signature with a data distribution scalar (DDS) computed
//     from a frequency matrix, a distance matrix and a contention vector;
//   - a simulated DSM multiprocessor (out-of-order cores, two-level
//     caches, pluggable coherence — directory MSI by default, IVY-style
//     page coherence as the alternative — hypercube wormhole network,
//     interleaved SDRAM — the paper's Table I system);
//   - synthetic workloads: the Table II panel (SPLASH-2 LU and FMM,
//     SPEC-OMP Art and Equake) plus the remaining SPLASH-2 codes,
//     coherence stress kernels, and runtime-defined DSL specs and
//     address traces; and the experiment harness that regenerates the
//     paper's CoV curves (Figures 2 and 4).
//
// Quick start — declare an experiment grid, run it, encode the report:
//
//	spec := dsmphase.NewSpec(
//		dsmphase.WithApps("lu"),
//		dsmphase.WithDetectors(dsmphase.DetectorBBV, dsmphase.DetectorBBVDDV),
//		dsmphase.WithSize(dsmphase.SizeTest),
//		dsmphase.WithReplicates(5), // mean ± 95% CI across seeds
//	)
//	report := spec.Run(dsmphase.EngineOptions{})
//	enc, _ := dsmphase.NewEncoder("text", "Figure 4")
//	enc.Encode(os.Stdout, report) // or "csv", "json", "markdown"
//
// The paper's figures are named grids: BuildGrid("figure2", params) and
// BuildGrid("figure4", params) compile them, and cmd/experiments runs
// them (-grids figure4 -format text prints Figure 4's CoV curves).
// RunCurve remains the one-shot helper for a single configuration.
//
// See DESIGN.md for the system inventory; cmd/experiments regenerates
// the paper-versus-measured scorecard.
package dsmphase

import (
	"io"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/harness"
	"dsmphase/internal/machine"
	"dsmphase/internal/predictor"
	"dsmphase/internal/stats"
	"dsmphase/internal/trace"
	"dsmphase/internal/tuning"
	"dsmphase/internal/workloads"
)

// ---- Phase detection (the paper's contribution) ----

// DetectorKind selects a phase detector.
type DetectorKind = core.DetectorKind

// Detector kinds: the BBV uniprocessor baseline, the paper's BBV+DDV,
// and the DDS-only ablation.
const (
	DetectorBBV    = core.DetectorBBV
	DetectorBBVDDV = core.DetectorBBVDDV
	DetectorDDS    = core.DetectorDDS
	DetectorWSS    = core.DetectorWSS
)

// WSSignature is an instruction working-set signature (the Dhodapkar-
// Smith baseline discussed in the paper's related work).
type WSSignature = core.WSSignature

// Accumulator is the BBV accumulator (hashed branch-PC counters).
type Accumulator = core.Accumulator

// FootprintTable classifies interval signatures with LRU replacement.
type FootprintTable = core.FootprintTable

// Detector is the per-processor online detector (accumulator + table).
type Detector = core.Detector

// IntervalSignature is one recorded sampling interval (BBV, DDS, CPI).
type IntervalSignature = core.IntervalSignature

// DistanceMatrix holds the pre-programmed D constants of the DDV.
type DistanceMatrix = core.DistanceMatrix

// FrequencyMatrix is the per-processor F counter matrix of the DDV.
type FrequencyMatrix = core.FrequencyMatrix

// DDSOptions selects ablation variants of the DDS computation.
type DDSOptions = core.DDSOptions

// OverheadEstimate models the DDS exchange bandwidth (paper §III-B).
type OverheadEstimate = core.OverheadEstimate

// NewAccumulator returns a BBV accumulator with the given counter count.
func NewAccumulator(size int) *Accumulator { return core.NewAccumulator(size) }

// NewDetector builds an online phase detector.
func NewDetector(kind DetectorKind, accSize, tableSize int, thBBV, thDDS float64) *Detector {
	return core.NewDetector(kind, accSize, tableSize, thBBV, thDDS)
}

// Manhattan returns the L1 distance between two signature vectors.
func Manhattan(a, b []float64) float64 { return core.Manhattan(a, b) }

// ComputeDDS evaluates the paper's data distribution scalar.
func ComputeDDS(i int, freq, contention []uint64, dist *DistanceMatrix, opt DDSOptions) (raw, normalized float64) {
	return core.ComputeDDS(i, freq, contention, dist, opt)
}

// ClassifyRecorded replays footprint-table classification over recorded
// signatures at the given thresholds.
func ClassifyRecorded(kind DetectorKind, tableSize int, thBBV, thDDS float64, sigs []IntervalSignature) []int {
	return core.ClassifyRecorded(kind, tableSize, thBBV, thDDS, sigs)
}

// PaperOverheadConfig returns the §III-B overhead parameters.
func PaperOverheadConfig() OverheadEstimate { return core.PaperOverheadConfig() }

// ---- Statistics and CoV curves ----

// CurvePoint is one operating point (phases, CoV) of a detector.
type CurvePoint = stats.CurvePoint

// Curve is a CoV curve (the paper's proposed evaluation tool).
type Curve = stats.Curve

// IdentifierCoV computes the interval-weighted per-phase CoV of CPI.
func IdentifierCoV(phases []int, cpis []float64) (cov float64, numPhases int) {
	return stats.IdentifierCoV(phases, cpis)
}

// LowerEnvelope reduces a sweep's point cloud to the presentation curve.
func LowerEnvelope(pts []CurvePoint) Curve { return stats.LowerEnvelope(pts) }

// ---- Simulation and experiments ----

// MachineConfig describes the simulated DSM system (Table I defaults
// from DefaultMachineConfig).
type MachineConfig = machine.Config

// Machine is one assembled DSM system bound to workload threads.
type Machine = machine.Machine

// Summary reports whole-run machine statistics.
type Summary = machine.Summary

// DefaultMachineConfig returns the Table I system for a node count.
func DefaultMachineConfig(procs int) MachineConfig { return machine.DefaultConfig(procs) }

// ---- Coherence protocols ----
//
// The machine's coherence engine is pluggable behind the
// coherence.Protocol seam: the line-granular directory-MSI engine
// (the Table I default) and an IVY-style page-granular DSM backend.
// Select a backend per simulation via RunConfig.Protocol or
// MachineConfig.Protocol, or sweep the axis with WithProtocols.

// ProtocolKind selects a coherence backend; the zero value is the
// directory engine, so existing configurations are unchanged.
type ProtocolKind = coherence.Kind

// Protocol kinds: the paper's line-granular directory MSI and the
// IVY-style page-granular alternative.
const (
	ProtocolDirectory = coherence.KindDirectory
	ProtocolIVY       = coherence.KindIVY
)

// ParseProtocolKind converts "directory" or "ivy" to a ProtocolKind.
func ParseProtocolKind(name string) (ProtocolKind, error) { return coherence.ParseKind(name) }

// ProtocolKinds returns every registered coherence backend.
func ProtocolKinds() []ProtocolKind { return coherence.Kinds() }

// RunConfig describes one simulation (workload, size, node count).
type RunConfig = harness.RunConfig

// SweepConfig describes a threshold sweep.
type SweepConfig = harness.SweepConfig

// CurveResult is one labelled CoV curve.
type CurveResult = harness.CurveResult

// ---- Sharded experiment engine ----

// Cell is one independent experiment point of a Plan.
type Cell = harness.Cell

// Plan is an ordered list of experiment cells.
type Plan = harness.Plan

// CellResult is one cell's outcome, with per-cell error isolation.
type CellResult = harness.CellResult

// EngineOptions configures the parallel plan runner.
type EngineOptions = harness.Options

// Runner executes plans across a bounded goroutine pool.
type Runner = harness.Runner

// NewPlan returns an empty experiment plan.
func NewPlan() *Plan { return harness.NewPlan() }

// NewRunner returns a plan runner with the given options.
func NewRunner(opts EngineOptions) *Runner { return harness.NewRunner(opts) }

// RunPlan executes every cell of a plan across the worker pool and
// returns results in plan order; worker count never changes the output.
func RunPlan(p *Plan, opts EngineOptions) []CellResult { return harness.RunPlan(p, opts) }

// Curves extracts the successful curves of a result set, in plan order.
func Curves(results []CellResult) []CurveResult { return harness.Curves(results) }

// FirstError returns the first failed cell's error, or nil.
func FirstError(results []CellResult) error { return harness.FirstError(results) }

// DeriveSeed deterministically derives a per-cell seed for multi-seed
// sweeps, independent of enumeration order.
func DeriveSeed(base uint64, workload string, procs, replicate int) uint64 {
	return harness.DeriveSeed(base, workload, procs, replicate)
}

// NewETA returns a progress ETA estimator for Options.Progress hooks.
func NewETA() *ETA { return harness.NewETA() }

// ProgressPrinter returns a Progress callback printing per-cell
// completions with timing and an ETA; use one per Run.
func ProgressPrinter(w io.Writer) func(done, total int, r CellResult) {
	return harness.ProgressPrinter(w)
}

// ETA estimates remaining run time from completed cells.
type ETA = harness.ETA

// ---- Declarative experiments: Spec → Report ----

// Spec declaratively describes an experiment grid — workloads × procs ×
// detectors × replicates × named machine variants — compiled onto the
// sharded engine.
type Spec = harness.Spec

// SpecOption configures a Spec (see the With* constructors).
type SpecOption = harness.Option

// Variant is one named machine configuration of an ablation grid.
type Variant = harness.Variant

// Configuration identifies one aggregated grid point of a Spec.
type Configuration = harness.Configuration

// ConfigResult is one configuration's replicates, curves and band.
type ConfigResult = harness.ConfigResult

// Report is an executed Spec: per-configuration aggregated results.
type Report = harness.Report

// Band is a CoV curve with across-replicate 95% confidence bounds.
type Band = stats.Band

// BandPoint is one phase-budget point of a Band.
type BandPoint = stats.BandPoint

// Encoder renders a Report in one output format.
type Encoder = harness.Encoder

// NewSpec builds an experiment Spec from functional options.
func NewSpec(opts ...SpecOption) *Spec { return harness.NewSpec(opts...) }

// WithApps selects applications; a single panel alias ("paper",
// "extended") expands to its member list.
func WithApps(apps ...string) SpecOption { return harness.WithApps(apps...) }

// WithProcs selects processor counts.
func WithProcs(procs ...int) SpecOption { return harness.WithProcs(procs...) }

// WithDetectors selects the detectors swept over each simulation.
func WithDetectors(kinds ...DetectorKind) SpecOption { return harness.WithDetectors(kinds...) }

// WithSize selects the workload input scale.
func WithSize(size Size) SpecOption { return harness.WithSize(size) }

// WithInterval sets the total sampling interval (split across nodes).
func WithInterval(interval uint64) SpecOption { return harness.WithInterval(interval) }

// WithSeed sets the base seed; replicates derive from it via DeriveSeed.
func WithSeed(seed uint64) SpecOption { return harness.WithSeed(seed) }

// WithReplicates runs every configuration under n seeds and aggregates
// mean ± 95% CI bands.
func WithReplicates(n int) SpecOption { return harness.WithReplicates(n) }

// WithProtocols sweeps the grid over coherence backends; empty keeps
// the directory default.
func WithProtocols(kinds ...ProtocolKind) SpecOption { return harness.WithProtocols(kinds...) }

// WithTweak appends a named, cache-keyed machine variant (one ablation
// grid row).
func WithTweak(name, key string, tweak func(*MachineConfig)) SpecOption {
	return harness.WithTweak(name, key, tweak)
}

// WithoutBaseline drops the implicit baseline variant from the grid.
func WithoutBaseline() SpecOption { return harness.WithoutBaseline() }

// WithPredictors selects the phase predictors of a tuning grid by name
// ("last-phase", "markov", "run-length"); empty keeps the full registry.
func WithPredictors(names ...string) SpecOption { return harness.WithPredictors(names...) }

// WithControllers selects the tuning controllers of a tuning grid; empty
// keeps DefaultControllers.
func WithControllers(specs ...ControllerSpec) SpecOption {
	return harness.WithControllers(specs...)
}

// WithPhaseBudget bounds how many phases a tuning controller will trial;
// detector thresholds are picked from the CoV curve within this budget.
func WithPhaseBudget(budget float64) SpecOption { return harness.WithPhaseBudget(budget) }

// NewEncoder returns the named Report encoder ("text", "csv", "json",
// "markdown").
func NewEncoder(name, title string) (Encoder, error) { return harness.NewEncoder(name, title) }

// EncoderNames returns the registered encoder names.
func EncoderNames() []string { return harness.EncoderNames() }

// AppsPanel returns a named application panel ("paper", "extended",
// "adversarial").
func AppsPanel(name string) ([]string, bool) { return harness.AppsPanel(name) }

// ResolveApps expands a panel alias; empty resolves to the paper panel.
func ResolveApps(apps []string) []string { return harness.ResolveApps(apps) }

// Simulate runs one workload on the simulated machine.
func Simulate(rc RunConfig) (*Machine, Summary, error) { return harness.Simulate(rc) }

// RunCurve simulates one configuration and sweeps one detector over it.
func RunCurve(rc RunConfig, kind DetectorKind) (CurveResult, error) {
	return harness.RunCurve(rc, kind)
}

// SweepMachine sweeps a detector over an already-simulated machine, so
// several detectors can be compared on the identical execution.
func SweepMachine(m *Machine, rc RunConfig, kind DetectorKind, sum Summary) CurveResult {
	return harness.SweepMachine(m, rc, kind, sum)
}

// Sweep classifies recorded signatures across threshold settings.
func Sweep(recs [][]IntervalSignature, sc SweepConfig) []CurvePoint {
	return harness.Sweep(recs, sc)
}

// WriteFigure prints a figure's curves in tabular form.
func WriteFigure(w io.Writer, title string, results []CurveResult) error {
	return harness.WriteFigure(w, title, results)
}

// CompareAtPhases reports each detector's CoV within a phase budget.
func CompareAtPhases(bbv, ddv CurveResult, maxPhases float64) (bbvCoV, ddvCoV float64) {
	return harness.CompareAtPhases(bbv, ddv, maxPhases)
}

// CompareAtCoV reports each detector's phase count at a CoV target.
func CompareAtCoV(bbv, ddv CurveResult, targetCoV float64) (bbvPhases, ddvPhases float64) {
	return harness.CompareAtCoV(bbv, ddv, targetCoV)
}

// ---- Workloads ----

// Size selects a workload input scale.
type Size = workloads.Size

// Input scales: seconds-scale tests, laptop-scale defaults, paper scale.
const (
	SizeTest  = workloads.SizeTest
	SizeSmall = workloads.SizeSmall
	SizeFull  = workloads.SizeFull
)

// Workload is one Table II application.
type Workload = workloads.Workload

// Workloads returns the registered applications in name order.
func Workloads() []Workload { return workloads.All() }

// WorkloadByName looks an application up by its Table II name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// ParseSize converts "test", "small" or "full" to a Size.
func ParseSize(name string) (Size, error) { return workloads.ParseSize(name) }

// ---- Declarative workloads: DSL specs and trace ingestion ----
//
// Beyond the built-in generators, workloads are definable at runtime:
// a JSON DSL describes phases of primitive access-pattern blocks
// (stride, share, random, tree, broadcast, reduction, stencil), and
// externally captured address traces replay through the same IR. Both
// register under a definition hash that the harness folds into plan
// fingerprints, so result caches and shard artifacts can never confuse
// two definitions sharing a name.

// SpecWorkload is a runtime-defined workload: a parsed DSL spec or an
// ingested address trace. Call its Register method to make it
// available to WorkloadByName, Specs and the experiment grids.
type SpecWorkload = workloads.SpecWorkload

// TraceAccess is one record of an externally captured per-processor
// address trace (see docs for the JSONL schema).
type TraceAccess = trace.Access

// ParseWorkloadSpec parses and validates a workload DSL spec held in
// memory; trace stanzas must carry inline records.
func ParseWorkloadSpec(src []byte) (*SpecWorkload, error) { return workloads.ParseSpec(src) }

// LoadWorkloadSpecFile reads and parses a spec file; trace file
// references resolve relative to the spec's directory and are inlined,
// so the result is self-contained.
func LoadWorkloadSpecFile(path string) (*SpecWorkload, error) { return workloads.LoadSpecFile(path) }

// WorkloadFromTrace builds a workload that replays a captured address
// trace, splitting per-processor streams at sync records into
// barrier-delimited phases.
func WorkloadFromTrace(name, desc string, recs []TraceAccess) (*SpecWorkload, error) {
	return workloads.FromTrace(name, desc, recs)
}

// WorkloadDefinitionHash returns the definition hash a dynamic
// workload registered under, or 0 for built-ins and unknown names.
func WorkloadDefinitionHash(name string) uint64 { return workloads.DefinitionHash(name) }

// ReadAccessTrace reads an address-trace JSONL stream.
func ReadAccessTrace(r io.Reader) ([]TraceAccess, error) { return trace.ReadAccessJSONL(r) }

// WriteAccessTrace writes an address-trace JSONL stream.
func WriteAccessTrace(w io.Writer, recs []TraceAccess) error { return trace.WriteAccessJSONL(w, recs) }

// ---- Phase prediction and tuning (the paper's pipeline context) ----

// Predictor forecasts the next interval's phase.
type Predictor = predictor.Predictor

// NewLastPhasePredictor predicts the current phase persists.
func NewLastPhasePredictor() Predictor { return predictor.NewLastPhase() }

// NewMarkovPredictor predicts via first-order transition counts.
func NewMarkovPredictor() Predictor { return predictor.NewMarkov() }

// NewRunLengthPredictor predicts via (phase, run length) histories.
func NewRunLengthPredictor(maxRun int) Predictor { return predictor.NewRunLength(maxRun) }

// PredictorAccuracy scores a predictor over a phase sequence.
func PredictorAccuracy(p Predictor, phases []int) float64 {
	return predictor.Accuracy(p, phases)
}

// TuningController runs per-phase trial-and-error reconfiguration.
type TuningController = tuning.Controller

// TuningOutcome summarizes an adaptive-tuning replay.
type TuningOutcome = tuning.Outcome

// NewTuningController returns a controller over numConfigs hardware
// configurations, measuring each for trialsPerConfig intervals.
func NewTuningController(numConfigs, trialsPerConfig int) *TuningController {
	return tuning.NewController(numConfigs, trialsPerConfig)
}

// ReplayTuning simulates the adaptive loop over a phase sequence.
func ReplayTuning(c *TuningController, phases []int, scores [][]float64) TuningOutcome {
	return tuning.Replay(c, phases, scores)
}

// AdaptiveLoop couples a phase predictor with a tuning controller — the
// complete detector → predictor → reconfiguration pipeline of §II. It
// is driven online, one interval at a time, through AdaptiveLoop.Step;
// Replay remains the offline convenience over recorded sequences.
type AdaptiveLoop = tuning.AdaptiveLoop

// AdaptiveOutcome extends TuningOutcome with prediction, win-rate and
// convergence accounting.
type AdaptiveOutcome = tuning.AdaptiveOutcome

// NewAdaptiveLoop builds the predictive tuning loop.
func NewAdaptiveLoop(c *TuningController, p Predictor) *AdaptiveLoop {
	return tuning.NewAdaptiveLoop(c, p)
}

// PredictorByName constructs a fresh predictor by registry name
// ("last-phase", "markov", "run-length").
func PredictorByName(name string) (Predictor, error) { return predictor.ByName(name) }

// PredictorNames returns the registered predictor names, sorted.
func PredictorNames() []string { return predictor.Names() }

// ---- Online adaptive tuning: Spec → TuningReport ----

// ControllerSpec names one tuning-controller configuration of a tuning
// grid (trial-and-error with TrialsPerConfig trials per setting).
type ControllerSpec = harness.ControllerSpec

// TuningConfiguration identifies one scorecard row: a grid
// Configuration crossed with a predictor and a controller.
type TuningConfiguration = harness.TuningConfiguration

// TuningValue is one replicate's scorecard metrics.
type TuningValue = harness.TuningValue

// TuningMetric is one scorecard metric banded across replicates.
type TuningMetric = harness.TuningMetric

// TuningConfigResult is one scorecard row with replicate-banded metrics.
type TuningConfigResult = harness.TuningConfigResult

// TuningReport is an executed tuning grid: win-rate, regret,
// convergence, accuracy and overhead per (variant, app, procs, detector,
// predictor, controller), each mean ± 95% CI across replicates. Build a
// Spec with WithPredictors/WithControllers/WithPhaseBudget and run
// Spec.RunTuning to produce one.
type TuningReport = harness.TuningReport

// TuningEncoder renders a TuningReport in one output format.
type TuningEncoder = harness.TuningEncoder

// NewTuningEncoder returns the named TuningReport encoder ("text",
// "csv", "json", "markdown").
func NewTuningEncoder(name, title string) (TuningEncoder, error) {
	return harness.NewTuningEncoder(name, title)
}

// TuningEncoderNames returns the registered tuning encoder names.
func TuningEncoderNames() []string { return harness.TuningEncoderNames() }

// DefaultControllers returns the default controller axis of a tuning
// grid.
func DefaultControllers() []ControllerSpec { return harness.DefaultControllers() }

// DefaultPhaseBudget is the default tuning phase budget.
const DefaultPhaseBudget = harness.DefaultPhaseBudget

// TuningHardwareConfigs is the number of hardware settings of the
// canonical tuning cost model.
const TuningHardwareConfigs = harness.TuningHardwareConfigs

// TuningCosts evaluates the canonical three-setting cost model over one
// processor's recorded intervals.
func TuningCosts(recs []IntervalSignature) [][]float64 { return harness.TuningCosts(recs) }

// OperatingPoint picks a detector's operating thresholds from its CoV
// curve: the lowest-CoV point within the phase budget.
func OperatingPoint(c Curve, phaseBudget float64) (thBBV, thDDS float64) {
	return harness.OperatingPoint(c, phaseBudget)
}

// CellHook is the engine's per-cell extension point (see
// harness.CellHook); the tuning driver is built on it.
type CellHook = harness.CellHook

// ---- Cross-machine sharding: Spec → shard artifacts → merged report ----
//
// A Spec's grid shards across machines: worker i runs
// Spec.RunShard(i, n) (or RunTuningShard) and serializes the results
// with NewShardGrid + WriteShardArtifact; the merge side reads the n
// artifacts, reassembles plan-ordered results with MergeShards, and
// Spec.Assemble / Spec.AssembleTuning reproduce the unsharded report
// byte for byte in every encoder format. See docs/MERGE_FORMAT.md.

// ShardFormat is the versioned format tag of a shard artifact.
const ShardFormat = harness.ShardFormat

// ShardArtifact is one worker's serialized shard output.
type ShardArtifact = harness.ShardArtifact

// ShardGrid is one experiment grid's shard within an artifact.
type ShardGrid = harness.ShardGrid

// ShardCell is one serialized cell result.
type ShardCell = harness.ShardCell

// TracedExtra is TraceHook's payload: recorded interval signatures
// alongside the inner hook payload.
type TracedExtra = harness.TracedExtra

// NewShardGrid captures one Spec's shard results as an artifact grid;
// tuning grids record their axes, and includeTrace serializes interval
// records captured via TraceHook.
func NewShardGrid(name string, s *Spec, results []CellResult, tuning, includeTrace bool) (ShardGrid, error) {
	return harness.NewShardGrid(name, s, results, tuning, includeTrace)
}

// WriteShardArtifact serializes a shard artifact as versioned JSON.
func WriteShardArtifact(w io.Writer, a *ShardArtifact) error {
	return harness.WriteShardArtifact(w, a)
}

// ReadShardArtifact deserializes and version-checks a shard artifact.
func ReadShardArtifact(r io.Reader) (*ShardArtifact, error) {
	return harness.ReadShardArtifact(r)
}

// WriteShardArtifactFile serializes a shard artifact to a file path.
func WriteShardArtifactFile(path string, a *ShardArtifact) error {
	return harness.WriteShardArtifactFile(path, a)
}

// ReadShardArtifactFile reads and version-checks one artifact file.
func ReadShardArtifactFile(path string) (*ShardArtifact, error) {
	return harness.ReadShardArtifactFile(path)
}

// ReadShardArtifactFiles reads a shard-artifact set (e.g. a -merge
// argument list).
func ReadShardArtifactFiles(paths []string) ([]*ShardArtifact, error) {
	return harness.ReadShardArtifactFiles(paths)
}

// MergeShards validates a complete shard set and reassembles the named
// grid's plan-ordered cell results, ready for Spec.Assemble or
// Spec.AssembleTuning.
func MergeShards(s *Spec, name string, arts []*ShardArtifact) ([]CellResult, error) {
	return harness.MergeShards(s, name, arts)
}

// ParseShard parses a "-shard i/n" flag value.
func ParseShard(v string) (shard, of int, err error) { return harness.ParseShard(v) }

// TraceHook wraps a CellHook so every cell's payload also carries the
// simulation's recorded interval signatures (persisted by shard
// artifacts when trace capture is enabled).
func TraceHook(inner CellHook) CellHook { return harness.TraceHook(inner) }

// UnwrapExtra strips a TracedExtra wrapper from a cell payload.
func UnwrapExtra(extra any) any { return harness.UnwrapExtra(extra) }

// SeededProgressPrinter is ProgressPrinter with an ETA prior taken from
// a previous run's persisted per-cell timings (see
// ShardArtifact.MeanCellWall).
func SeededProgressPrinter(w io.Writer, perCell time.Duration, cells int) func(done, total int, r CellResult) {
	return harness.SeededProgressPrinter(w, perCell, cells)
}

// ---- Structured progress events ----

// ProgressEvent is one structured per-cell progress notification —
// the shared source behind the CLI's stderr printer and the
// coordinator service's SSE stream.
type ProgressEvent = harness.ProgressEvent

// EventSink consumes ProgressEvents.
type EventSink = harness.EventSink

// ProgressEvents adapts an EventSink into an EngineOptions.Progress
// callback, with an optional seeded ETA prior.
func ProgressEvents(sink EventSink, perCell time.Duration, cells int) func(done, total int, r CellResult) {
	return harness.ProgressEvents(sink, perCell, cells)
}

// ---- Named experiment grids ----

// GridParams are the wire-serializable Spec parameters every named
// grid shares (see BuildGrid).
type GridParams = harness.GridParams

// NamedGrid is one registry entry: a grid name bound to its compiled
// Spec.
type NamedGrid = harness.NamedGrid

// BuildGrid compiles a named experiment grid ("figure2", "figure4",
// "ablation", "tuning") under the given parameters; the same (name,
// params) pair yields the same plan fingerprint on every machine.
func BuildGrid(name string, gp GridParams) (NamedGrid, error) { return harness.BuildGrid(name, gp) }

// GridNames returns the registered grid names, sorted.
func GridNames() []string { return harness.GridNames() }

// ---- Per-cell shard streaming (durability + resume) ----

// CellStreamFormat is the versioned format tag of a cell stream.
const CellStreamFormat = harness.CellStreamFormat

// CellStream appends completed cells to a `.cells.jsonl` stream file
// as they finish, so a run that dies mid-shard resumes from its last
// completed cell.
type CellStream = harness.CellStream

// CellStreamHeader identifies the plan a grid's streamed cells belong
// to.
type CellStreamHeader = harness.CellStreamHeader

// StreamedGrid is one grid's recovered stream.
type StreamedGrid = harness.StreamedGrid

// CellStreamPath derives the stream sibling's path from an artifact
// path.
func CellStreamPath(artifact string) string { return harness.CellStreamPath(artifact) }

// OpenCellStream opens (creating or appending) a stream file.
func OpenCellStream(path string) (*CellStream, error) { return harness.OpenCellStream(path) }

// ReadCellStream recovers a stream file's grids (tolerating a torn
// tail).
func ReadCellStream(path string) (map[string]*StreamedGrid, error) {
	return harness.ReadCellStream(path)
}
