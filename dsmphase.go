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
// Simulate and SweepMachine compare detectors on one execution.
//
// The facade re-exports what the commands, the examples and the docs
// call; the internal packages hold the rest. See DESIGN.md for the
// system inventory; cmd/experiments regenerates the paper-versus-
// measured scorecard.
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

// Detector kinds: the BBV uniprocessor baseline and the paper's BBV+DDV.
const (
	DetectorBBV    = core.DetectorBBV
	DetectorBBVDDV = core.DetectorBBVDDV
)

// IntervalSignature is one recorded sampling interval (BBV, DDS, CPI).
type IntervalSignature = core.IntervalSignature

// OverheadEstimate models the DDS exchange bandwidth (paper §III-B).
type OverheadEstimate = core.OverheadEstimate

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

// ProtocolKind selects a coherence backend (RunConfig.Protocol or
// MachineConfig.Protocol): the line-granular directory MSI of Table I,
// the zero value, or an IVY-style page-granular DSM.
type ProtocolKind = coherence.Kind

// ProtocolDirectory is the paper's line-granular directory MSI.
const ProtocolDirectory = coherence.KindDirectory

// ParseProtocolKind converts "directory" or "ivy" to a ProtocolKind.
func ParseProtocolKind(name string) (ProtocolKind, error) { return coherence.ParseKind(name) }

// RunConfig describes one simulation (workload, size, node count).
type RunConfig = harness.RunConfig

// CurveResult is one labelled CoV curve.
type CurveResult = harness.CurveResult

// CellResult is one cell's outcome, with per-cell error isolation.
type CellResult = harness.CellResult

// EngineOptions configures the parallel plan runner.
type EngineOptions = harness.Options

// DeriveSeed deterministically derives a per-cell seed for multi-seed
// sweeps, independent of enumeration order.
func DeriveSeed(base uint64, workload string, procs, replicate int) uint64 {
	return harness.DeriveSeed(base, workload, procs, replicate)
}

// ---- Declarative experiments: Spec → Report ----

// Spec declaratively describes an experiment grid — workloads × procs ×
// detectors × replicates × named machine variants — compiled onto the
// sharded engine.
type Spec = harness.Spec

// SpecOption configures a Spec (see the With* constructors).
type SpecOption = harness.Option

// Configuration identifies one aggregated grid point of a Spec.
type Configuration = harness.Configuration

// ConfigResult is one configuration's replicates, curves and band.
type ConfigResult = harness.ConfigResult

// Report is an executed Spec: per-configuration aggregated results.
type Report = harness.Report

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

// WithTweak appends a named, cache-keyed machine variant (one ablation
// grid row).
func WithTweak(name, key string, tweak func(*MachineConfig)) SpecOption {
	return harness.WithTweak(name, key, tweak)
}

// WithPredictors selects the phase predictors of a tuning grid by name
// ("last-phase", "markov", "run-length"); empty keeps the full registry.
func WithPredictors(names ...string) SpecOption { return harness.WithPredictors(names...) }

// WithControllers selects the tuning controllers of a tuning grid; empty
// keeps the default controller axis.
func WithControllers(specs ...ControllerSpec) SpecOption {
	return harness.WithControllers(specs...)
}

// NewEncoder returns the named Report encoder ("text", "csv", "json",
// "markdown").
func NewEncoder(name, title string) (Encoder, error) { return harness.NewEncoder(name, title) }

// EncoderNames returns the registered encoder names.
func EncoderNames() []string { return harness.EncoderNames() }

// Simulate runs one workload on the simulated machine. The returned
// machine is released: its records, network and protocol statistics
// stay readable, but its caches already serve the next simulation, so
// it cannot run again or check coherence invariants.
func Simulate(rc RunConfig) (*Machine, Summary, error) { return harness.Simulate(rc) }

// SweepMachine sweeps a detector over an already-simulated machine, so
// several detectors can be compared on the identical execution.
func SweepMachine(m *Machine, rc RunConfig, kind DetectorKind, sum Summary) CurveResult {
	return harness.SweepMachine(m, rc, kind, sum)
}

// WriteFigure prints a figure's curves in tabular form.
func WriteFigure(w io.Writer, title string, results []CurveResult) error {
	return harness.WriteFigure(w, title, results)
}

// CompareAtPhases reports each detector's CoV within a phase budget.
func CompareAtPhases(bbv, ddv CurveResult, maxPhases float64) (bbvCoV, ddvCoV float64) {
	return harness.CompareAtPhases(bbv, ddv, maxPhases)
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

// ---- Online adaptive tuning: Spec → TuningReport ----

// ControllerSpec names one tuning-controller configuration of a tuning
// grid (trial-and-error with TrialsPerConfig trials per setting).
type ControllerSpec = harness.ControllerSpec

// TuningReport is an executed tuning grid: win-rate, regret,
// convergence, accuracy and overhead per (variant, app, procs, detector,
// predictor, controller), each mean ± 95% CI across replicates. Build a
// Spec with WithPredictors/WithControllers, run it as a NamedGrid with
// Tuning set through RunGrids, and aggregate the results with
// Spec.AssembleTuning (or render them with NamedGrid.Encoder).
type TuningReport = harness.TuningReport

// TuningEncoder renders a TuningReport in one output format.
type TuningEncoder = harness.TuningEncoder

// NewTuningEncoder returns the named TuningReport encoder ("text",
// "csv", "json", "markdown").
func NewTuningEncoder(name, title string) (TuningEncoder, error) {
	return harness.NewTuningEncoder(name, title)
}

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

// ---- Cross-machine sharding: grids → shard artifacts → merged report ----
//
// Named grids shard across machines: worker i runs RunGrids(grids, i,
// n, ...) and serializes each grid's results with NewShardGrid +
// WriteShardArtifact; the merge side reads the n artifacts, reassembles
// each grid's plan-ordered results with MergeShards, and
// NamedGrid.Encoder (Spec.Assemble / Spec.AssembleTuning underneath)
// reproduces the unsharded report byte for byte in every format. See
// docs/MERGE_FORMAT.md.

// ShardFormat is the versioned format tag of a shard artifact.
const ShardFormat = harness.ShardFormat

// ShardArtifact is one worker's serialized shard output.
type ShardArtifact = harness.ShardArtifact

// ShardGrid is one experiment grid's shard within an artifact.
type ShardGrid = harness.ShardGrid

// NewShardGrid captures one Spec's shard results as an artifact grid;
// tuning grids record their axes, and includeTrace serializes the
// interval records of a RunGrids run with trace set.
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

// SeededProgressPrinter returns an EngineOptions.Progress callback that
// prints one line per completed cell with its timing and an ETA. The
// ETA starts from a previous run's persisted per-cell timings (see
// ShardArtifact.MeanCellWall); zero arguments start it cold. Use one
// printer per RunGrids call.
func SeededProgressPrinter(w io.Writer, perCell time.Duration, cells int) func(done, total int, r CellResult) {
	return harness.SeededProgressPrinter(w, perCell, cells)
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

// GridEncoder renders one grid's plan-ordered cell results in one
// format (see NamedGrid.Encoder).
type GridEncoder = harness.GridEncoder

// RunGrids executes shard i of n of every grid (0 of 1 is the whole
// plan) and returns each grid's plan-indexed results. It drives each
// tuning grid's online tuning loop, records every cell's interval
// signatures when trace is set, and with a CellStream streams completed
// cells and resumes from the ones ResumeCellStream recovered.
func RunGrids(grids []NamedGrid, shard, of int, opts EngineOptions, trace bool, cs *CellStream) ([][]CellResult, int, error) {
	return harness.RunGrids(grids, shard, of, opts, trace, cs)
}

// ---- Per-cell shard streaming (durability + resume) ----

// CellStream appends completed cells to a `.cells.jsonl` stream file
// as they finish, so a run that dies mid-shard resumes from its last
// completed cell.
type CellStream = harness.CellStream

// CellStreamPath derives the stream sibling's path from an artifact
// path.
func CellStreamPath(artifact string) string { return harness.CellStreamPath(artifact) }

// ResumeCellStream opens the stream file of a RunGrids shard run and
// recovers the cells an earlier attempt of the same run left in it; a
// stream from different flags is deleted and restarted reports it.
func ResumeCellStream(path string, grids []NamedGrid, shard, of int) (cs *CellStream, restarted bool, err error) {
	return harness.ResumeCellStream(path, grids, shard, of)
}
