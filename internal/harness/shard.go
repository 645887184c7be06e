package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/rng"
	"dsmphase/internal/stats"
	"dsmphase/internal/trace"
	"dsmphase/internal/workloads"
)

// Cross-machine sharding. A Spec's cell grid is embarrassingly parallel
// above the cell level, so a sweep can be split across machines: each
// worker runs `RunGrids(grids, i, n, ...)` and serializes its cell
// results into a versioned JSON shard artifact; a merge step
// reads the n artifacts, validates that they describe the same plan
// (fingerprints), reassembles the plan-ordered cell-result list and
// feeds it through the same Assemble/AssembleTuning aggregation the
// single-process run uses — so every encoder's output is byte-identical
// to an unsharded run. See docs/MERGE_FORMAT.md for the schema.
//
// Shard assignment hashes each cell's simulation identity, so it is
// independent of worker count, enumeration order and shard-local
// execution order — and cells sharing one simulation (the same
// execution swept by several detectors) always land on the same shard,
// so each worker still simulates every execution once.

// ShardFormat is the versioned format tag of a shard artifact. Bump the
// trailing version on any incompatible schema change, and keep
// docs/MERGE_FORMAT.md (and the shard golden file) in lockstep — a test
// cross-checks all three.
const ShardFormat = "dsmphase-shard/1"

// hashString folds a string into a running Hash64 chain; the length
// guard keeps adjacent fields from concatenating ambiguously.
func hashString(h uint64, s string) uint64 {
	for _, b := range []byte(s) {
		h = rng.Hash64(h ^ uint64(b))
	}
	return rng.Hash64(h ^ uint64(len(s)))
}

// hashKey folds a cell's simulation identity into a Hash64 chain. The
// protocol folds in only when non-default, so every pre-seam plan keeps
// its fingerprint (and shard assignment) byte for byte.
func hashKey(h uint64, k simKey) uint64 {
	h = hashString(h, k.workload)
	h = rng.Hash64(h ^ uint64(k.size))
	h = rng.Hash64(h ^ uint64(k.procs))
	h = rng.Hash64(h ^ k.interval)
	h = rng.Hash64(h ^ k.seed)
	h = hashString(h, k.tweak)
	if k.protocol != coherence.KindDirectory {
		h = hashString(h, k.protocol.String())
	}
	return h
}

// shardOf assigns a simulation identity to one of `of` shards.
func shardOf(k simKey, of int) int {
	return int(hashKey(rng.Hash64(uint64(of)), k) % uint64(of))
}

// ShardIndices returns the plan indices assigned to shard `shard` of
// `of`, ascending. Assignment hashes each cell's simulation identity
// (DeriveSeed-style), so it is independent of enumeration order and
// keeps cells sharing a simulation on one shard; a tiny plan may
// therefore fill shards unevenly, and a shard can even be empty — the
// merge accepts that. Panics unless 0 ≤ shard < of.
func (p *Plan) ShardIndices(shard, of int) []int {
	if of < 1 || shard < 0 || shard >= of {
		panic(fmt.Sprintf("harness: shard %d/%d out of range", shard, of))
	}
	var out []int
	for i, c := range p.cells {
		if shardOf(c.simKeyAt(i), of) == shard {
			out = append(out, i)
		}
	}
	return out
}

// Fingerprint deterministically summarizes the plan's full cell list —
// identities and order — as a 16-hex-digit string. Two plans fingerprint
// equal exactly when a shard of one can be merged into the other, so
// the merge refuses artifacts produced under different flags, seeds or
// grids. Tweak functions cannot be hashed; only their cache keys (and
// presence) participate, matching the engine's own blindness.
// Dynamically registered workloads (DSL specs, ingested traces) fold
// their definition hash in as well: a built-in name contributes
// nothing extra — keeping all pre-DSL fingerprints stable — while two
// specs sharing a name but not a definition can never satisfy each
// other's shard artifacts or cache entries.
func (p *Plan) Fingerprint() string {
	h := rng.Hash64(uint64(len(p.cells)))
	for i, c := range p.cells {
		h = hashKey(h, c.simKeyAt(i))
		h = rng.Hash64(h ^ uint64(c.Kind))
		if dh := workloads.DefinitionHash(c.Run.Workload); dh != 0 {
			h = rng.Hash64(h ^ dh)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// TracedExtra is the payload produced by TraceHook: the cell's recorded
// per-processor interval signatures alongside the inner hook's payload.
// Shard artifacts serialize the records through internal/trace when
// trace capture is enabled.
type TracedExtra struct {
	// Records is the simulation's per-processor interval record, as
	// returned by Machine.RecordsByProc. Cells sharing one simulation
	// share the underlying slices; treat them as read-only.
	Records [][]core.IntervalSignature
	// Inner is the wrapped hook's payload (nil without one).
	Inner any
}

// TraceHook wraps a CellHook (nil allowed) so every cell's Extra also
// carries the simulation's recorded interval signatures — the raw
// material shard artifacts persist for offline re-analysis.
func TraceHook(inner CellHook) CellHook {
	return func(c Cell, m *machine.Machine, curve CurveResult, sum machine.Summary) any {
		var in any
		if inner != nil {
			in = inner(c, m, curve, sum)
		}
		return TracedExtra{Records: m.RecordsByProc(), Inner: in}
	}
}

// UnwrapExtra strips a TracedExtra wrapper from a cell payload,
// returning the inner hook payload (or the value itself when unwrapped).
func UnwrapExtra(extra any) any {
	if t, ok := extra.(TracedExtra); ok {
		return t.Inner
	}
	return extra
}

// ---- The shard artifact (see docs/MERGE_FORMAT.md) ----

// ShardArtifact is one worker's serialized output: which shard of how
// many, and one ShardGrid per experiment grid the worker ran.
type ShardArtifact struct {
	// Format is the ShardFormat version tag.
	Format string `json:"format"`
	// Shard and Of identify the partition: this file holds shard Shard
	// of Of.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Checksum is a content checksum over every other field (16 hex
	// digits, Hash64 chain over the compact JSON encoding with this
	// field cleared). Writers always set it; readers verify it when
	// present, so pre-checksum artifacts stay readable without a
	// format-version bump.
	Checksum string `json:"checksum,omitempty"`
	// Grids holds one entry per experiment grid, in run order.
	Grids []ShardGrid `json:"grids"`
}

// ErrArtifactChecksum tags a checksum-mismatch read failure, so callers
// can distinguish silent content corruption from schema or fingerprint
// errors (errors.Is).
var ErrArtifactChecksum = errors.New("harness: shard artifact checksum mismatch")

// ChecksumArtifact computes the artifact's content checksum: the
// Hash64 chain over the compact JSON encoding with the Checksum field
// cleared. Field order of the struct encoding is fixed, so the value
// is deterministic for a given content (wall_ns included — the
// checksum certifies the bytes that were written, not the plan).
func ChecksumArtifact(a *ShardArtifact) (string, error) {
	c := *a
	c.Checksum = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("harness: checksumming shard artifact: %w", err)
	}
	h := rng.Hash64(uint64(len(b)))
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = rng.Hash64(h ^ w)
		b = b[8:]
	}
	for _, x := range b {
		h = rng.Hash64(h ^ uint64(x))
	}
	return fmt.Sprintf("%016x", h), nil
}

// ShardGrid is one experiment grid's shard: the plan identity every
// shard of the grid must agree on, plus this shard's cell results.
type ShardGrid struct {
	// Name labels the grid ("figure2", "tuning", ...); the merge matches
	// grids across artifacts by name.
	Name string `json:"name"`
	// Cells is the FULL plan's cell count (all shards together).
	Cells int `json:"cells"`
	// Fingerprint is Plan.Fingerprint of the full plan.
	Fingerprint string `json:"fingerprint"`
	// TuningAxes echoes the Spec's tuning axes for tuning grids, so the
	// merge can refuse a mismatched reassembly; nil for plain grids.
	TuningAxes *ShardTuningAxes `json:"tuning_axes,omitempty"`
	// Results holds this shard's cells, ascending by Index.
	Results []ShardCell `json:"results"`
}

// ShardTuningAxes identifies a tuning grid's predictor × controller
// axes and phase budget.
type ShardTuningAxes struct {
	Predictors  []string          `json:"predictors"`
	Controllers []ShardController `json:"controllers"`
	PhaseBudget float64           `json:"phase_budget"`
}

// ShardController is the wire form of a ControllerSpec.
type ShardController struct {
	Name            string `json:"name"`
	TrialsPerConfig int    `json:"trials_per_config"`
}

// ShardCell is one cell's serialized result: its identity within the
// plan, its outcome (curve + summary, or an error), its wall-clock time
// (feeds ETA seeding; never encoder output), and optional tuning and
// trace payloads.
type ShardCell struct {
	// Index is the cell's position in the FULL plan.
	Index int `json:"index"`
	// The cell's identity (Tweak functions do not round-trip; their
	// cache keys do, and the merge validates identity by fingerprint).
	Workload string `json:"workload"`
	Size     string `json:"size"`
	Procs    int    `json:"procs"`
	Interval uint64 `json:"interval"`
	Seed     uint64 `json:"seed"`
	Detector string `json:"detector"`
	TweakKey string `json:"tweak_key,omitempty"`
	// Protocol names the coherence backend when it is not the default
	// directory engine; absent means directory (pre-seam artifacts stay
	// readable, and default-protocol artifacts stay byte-identical).
	Protocol string `json:"protocol,omitempty"`
	// WallNS is the cell's wall-clock time in nanoseconds — the only
	// nondeterministic field of the artifact.
	WallNS int64 `json:"wall_ns"`
	// Err is the cell's error string; when set, Curve and Summary are
	// absent.
	Err string `json:"error,omitempty"`
	// Curve is the swept lower-envelope CoV curve.
	Curve []ShardCurvePoint `json:"curve,omitempty"`
	// Summary carries the simulation's whole-run statistics.
	Summary *ShardSummary `json:"summary,omitempty"`
	// Tuning holds the cell's per-(predictor, controller) scorecard
	// values, predictor-major — present only on tuning-grid cells.
	Tuning []ShardTuningValue `json:"tuning,omitempty"`
	// Trace holds the simulation's interval records as internal/trace
	// JSONL (proc-major, interval order) — present only when the shard
	// run captured traces, and only on the FIRST cell of each
	// simulation: sibling cells sweeping the same execution carry a
	// TraceRef instead, so the (potentially large) record stream is
	// stored once per simulation, not once per detector sweep.
	Trace string `json:"trace,omitempty"`
	// TraceRef, when non-nil, is the plan index of the grid cell whose
	// Trace field holds this cell's (shared) simulation records; resolve
	// it with ShardGrid.TraceFor.
	TraceRef *int `json:"trace_ref,omitempty"`
}

// ShardCurvePoint is the wire form of a stats.CurvePoint.
type ShardCurvePoint struct {
	Phases       float64 `json:"phases"`
	CoV          float64 `json:"cov"`
	Threshold    float64 `json:"th_bbv"`
	ThresholdDDS float64 `json:"th_dds"`
}

// ShardSummary is the wire form of a machine.Summary.
type ShardSummary struct {
	Instructions uint64  `json:"instructions"`
	SyncInstrs   uint64  `json:"sync_instrs"`
	Cycles       float64 `json:"cycles"`
	Intervals    int     `json:"intervals"`
	Barriers     uint64  `json:"barriers"`
	IPC          float64 `json:"ipc"`
	Local        uint64  `json:"local_accesses"`
	Remote       uint64  `json:"remote_accesses"`
}

// ShardTuningValue is the wire form of a TuningValue.
type ShardTuningValue struct {
	WinRate     float64 `json:"win_rate"`
	Regret      float64 `json:"regret"`
	Convergence float64 `json:"convergence"`
	Accuracy    float64 `json:"accuracy"`
	Overhead    float64 `json:"overhead"`
}

// NewShardGrid captures one Spec's shard results as an artifact grid.
// tuning marks a tuning grid (its axes are recorded for merge-side
// validation); includeTrace serializes each cell's
// interval records when the run captured them via TraceHook — once per
// simulation: sibling cells sweeping the same execution get a TraceRef
// to the owning cell instead of a duplicate copy.
func NewShardGrid(name string, s *Spec, results []CellResult, tuning, includeTrace bool) (ShardGrid, error) {
	p := s.Plan()
	g := ShardGrid{
		Name:        name,
		Cells:       p.Len(),
		Fingerprint: p.Fingerprint(),
		Results:     make([]ShardCell, 0, len(results)),
	}
	if tuning {
		g.TuningAxes = specTuningAxes(s)
	}
	traceOwner := map[simKey]int{}
	for _, r := range results {
		sc := newShardCell(r)
		if te, ok := r.Extra.(TracedExtra); ok && includeTrace && r.Err == nil {
			k := r.Cell.simKeyAt(r.Index)
			if owner, seen := traceOwner[k]; seen {
				ref := owner
				sc.TraceRef = &ref
			} else {
				var sb strings.Builder
				for _, recs := range te.Records {
					if err := trace.WriteJSONL(&sb, recs); err != nil {
						return ShardGrid{}, fmt.Errorf("harness: grid %s cell %d: %w", name, r.Index, err)
					}
				}
				sc.Trace = sb.String()
				traceOwner[k] = r.Index
			}
		}
		g.Results = append(g.Results, sc)
	}
	return g, nil
}

// specTuningAxes snapshots a Spec's resolved tuning axes.
func specTuningAxes(s *Spec) *ShardTuningAxes {
	ax := &ShardTuningAxes{
		Predictors:  s.Predictors(),
		PhaseBudget: s.PhaseBudget(),
	}
	for _, c := range s.Controllers() {
		ax.Controllers = append(ax.Controllers, ShardController{
			Name: c.Name, TrialsPerConfig: c.TrialsPerConfig,
		})
	}
	return ax
}

// newShardCell serializes one cell result (trace payloads are handled
// by NewShardGrid, which deduplicates them across sibling cells).
func newShardCell(r CellResult) ShardCell {
	sc := ShardCell{
		Index:    r.Index,
		Workload: r.Cell.Run.Workload,
		Size:     r.Cell.Run.Size.String(),
		Procs:    r.Cell.Run.Procs,
		Interval: r.Cell.Run.IntervalInstructions,
		Seed:     r.Cell.Run.Seed,
		Detector: r.Cell.Kind.String(),
		TweakKey: r.Cell.TweakKey,
		WallNS:   r.Wall.Nanoseconds(),
	}
	if r.Cell.Run.Protocol != coherence.KindDirectory {
		sc.Protocol = r.Cell.Run.Protocol.String()
	}
	if r.Err != nil {
		sc.Err = r.Err.Error()
		return sc
	}
	for _, p := range r.Curve.Curve.Points {
		sc.Curve = append(sc.Curve, ShardCurvePoint{
			Phases: p.Phases, CoV: p.CoV, Threshold: p.Threshold, ThresholdDDS: p.ThresholdDDS,
		})
	}
	sum := r.Curve.Summary
	sc.Summary = &ShardSummary{
		Instructions: sum.Instructions,
		SyncInstrs:   sum.SyncInstrs,
		Cycles:       sum.Cycles,
		Intervals:    sum.Intervals,
		Barriers:     sum.Barriers,
		IPC:          sum.IPC,
		Local:        sum.LocalAccesses,
		Remote:       sum.RemoteAccesses,
	}
	if ct, ok := UnwrapExtra(r.Extra).(cellTuning); ok {
		for _, v := range ct.rows {
			sc.Tuning = append(sc.Tuning, ShardTuningValue{
				WinRate: v.WinRate, Regret: v.Regret, Convergence: v.Convergence,
				Accuracy: v.Accuracy, Overhead: v.Overhead,
			})
		}
	}
	return sc
}

// CellResult reconstructs the engine-form result of one serialized
// cell. Tweak functions do not round-trip (the merge never re-runs
// simulations, and the fingerprint already validated plan identity),
// and a cell whose trace was deduplicated to a sibling (TraceRef)
// reconstructs without the records — resolve them with
// ShardGrid.TraceFor; report aggregation never reads them.
func (c ShardCell) CellResult() (CellResult, error) {
	size, err := workloads.ParseSize(c.Size)
	if err != nil {
		return CellResult{}, fmt.Errorf("harness: cell %d: %w", c.Index, err)
	}
	kind, err := core.ParseDetectorKind(c.Detector)
	if err != nil {
		return CellResult{}, fmt.Errorf("harness: cell %d: %w", c.Index, err)
	}
	proto := coherence.KindDirectory
	if c.Protocol != "" {
		if proto, err = coherence.ParseKind(c.Protocol); err != nil {
			return CellResult{}, fmt.Errorf("harness: cell %d: %w", c.Index, err)
		}
	}
	res := CellResult{
		Index: c.Index,
		Cell: Cell{
			Run: RunConfig{
				Workload:             c.Workload,
				Size:                 size,
				Procs:                c.Procs,
				IntervalInstructions: c.Interval,
				Seed:                 c.Seed,
				Protocol:             proto,
			},
			Kind:     kind,
			TweakKey: c.TweakKey,
		},
		Wall: time.Duration(c.WallNS),
	}
	if c.Err != "" {
		res.Err = errors.New(c.Err)
		return res, nil
	}
	res.Curve = CurveResult{App: c.Workload, Procs: c.Procs, Detector: kind}
	for _, p := range c.Curve {
		res.Curve.Curve.Points = append(res.Curve.Curve.Points, stats.CurvePoint{
			Phases: p.Phases, CoV: p.CoV, Threshold: p.Threshold, ThresholdDDS: p.ThresholdDDS,
		})
	}
	if s := c.Summary; s != nil {
		res.Curve.Summary = machine.Summary{
			Instructions:   s.Instructions,
			SyncInstrs:     s.SyncInstrs,
			Cycles:         s.Cycles,
			Intervals:      s.Intervals,
			Barriers:       s.Barriers,
			IPC:            s.IPC,
			LocalAccesses:  s.Local,
			RemoteAccesses: s.Remote,
		}
	}
	var inner any
	if c.Tuning != nil {
		ct := cellTuning{rows: make([]TuningValue, 0, len(c.Tuning))}
		for _, v := range c.Tuning {
			ct.rows = append(ct.rows, TuningValue{
				WinRate: v.WinRate, Regret: v.Regret, Convergence: v.Convergence,
				Accuracy: v.Accuracy, Overhead: v.Overhead,
			})
		}
		inner = ct
	}
	if c.Trace != "" {
		recs, err := c.DecodeTrace()
		if err != nil {
			return CellResult{}, err
		}
		res.Extra = TracedExtra{Records: recs, Inner: inner}
	} else {
		res.Extra = inner
	}
	return res, nil
}

// DecodeTrace returns the cell's directly embedded interval records,
// regrouped per processor, or nil when the cell carries none. A cell
// whose trace lives on a sibling (TraceRef) also returns nil here —
// use ShardGrid.TraceFor to follow the reference.
func (c ShardCell) DecodeTrace() ([][]core.IntervalSignature, error) {
	if c.Trace == "" {
		return nil, nil
	}
	recs, err := trace.ReadJSONL(strings.NewReader(c.Trace))
	if err != nil {
		return nil, fmt.Errorf("harness: cell %d trace: %w", c.Index, err)
	}
	return trace.SplitByProc(recs), nil
}

// TraceFor returns the captured interval records of the cell at the
// given plan index, following a TraceRef to the owning sibling when
// the trace was deduplicated. Returns nil when the grid holds no trace
// for the cell.
func (g *ShardGrid) TraceFor(index int) ([][]core.IntervalSignature, error) {
	c := g.cellAt(index)
	if c == nil {
		return nil, fmt.Errorf("harness: grid %s has no cell %d", g.Name, index)
	}
	if c.TraceRef != nil {
		owner := g.cellAt(*c.TraceRef)
		if owner == nil || owner.Trace == "" {
			return nil, fmt.Errorf("harness: grid %s cell %d: dangling trace_ref %d", g.Name, index, *c.TraceRef)
		}
		c = owner
	}
	return c.DecodeTrace()
}

// cellAt finds a grid cell by plan index.
func (g *ShardGrid) cellAt(index int) *ShardCell {
	for i := range g.Results {
		if g.Results[i].Index == index {
			return &g.Results[i]
		}
	}
	return nil
}

// WriteShardArtifact serializes the artifact as indented JSON. Apart
// from the wall-clock timings every field is deterministic, so two runs
// of the same shard differ only in wall_ns values.
func WriteShardArtifact(w io.Writer, a *ShardArtifact) error {
	if a.Format == "" {
		a.Format = ShardFormat
	}
	if a.Format != ShardFormat {
		return fmt.Errorf("harness: shard artifact format %q, this build writes %q", a.Format, ShardFormat)
	}
	sum, err := ChecksumArtifact(a)
	if err != nil {
		return err
	}
	a.Checksum = sum
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteShardArtifactFile serializes the artifact to a file path — the
// CLI convenience both cmd front-ends share.
func WriteShardArtifactFile(path string, a *ShardArtifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteShardArtifact(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadShardArtifactFile reads and version-checks one artifact file.
func ReadShardArtifactFile(path string) (*ShardArtifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadShardArtifact(f)
}

// ReadShardArtifactFiles reads a shard-artifact set, e.g. a -merge
// argument list.
func ReadShardArtifactFiles(paths []string) ([]*ShardArtifact, error) {
	arts := make([]*ShardArtifact, 0, len(paths))
	for _, p := range paths {
		a, err := ReadShardArtifactFile(p)
		if err != nil {
			return nil, err
		}
		arts = append(arts, a)
	}
	return arts, nil
}

// DecodeOne decodes the one JSON value r holds into v. Trailing
// whitespace is accepted; anything else after the value (a torn
// append, a second value) is an error. The tail is checked as it
// streams, so whitespace padding is never buffered.
func DecodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	tail := io.MultiReader(dec.Buffered(), r)
	buf := make([]byte, 32<<10)
	for {
		n, err := tail.Read(buf)
		// JSON has four whitespace bytes; counting each one is a
		// vectorized pass, so a padded tail streams at memory speed.
		space := 0
		for _, c := range []byte(" \t\r\n") {
			space += bytes.Count(buf[:n], []byte{c})
		}
		if space != n {
			return errors.New("trailing data after the JSON value")
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ReadShardArtifact deserializes and version-checks one artifact, the
// only value of r.
func ReadShardArtifact(r io.Reader) (*ShardArtifact, error) {
	var a ShardArtifact
	if err := DecodeOne(r, &a); err != nil {
		return nil, fmt.Errorf("harness: reading shard artifact: %w", err)
	}
	if a.Format != ShardFormat {
		return nil, fmt.Errorf("harness: shard artifact format %q, want %q", a.Format, ShardFormat)
	}
	if a.Of < 1 || a.Shard < 0 || a.Shard >= a.Of {
		return nil, fmt.Errorf("harness: shard artifact claims shard %d/%d", a.Shard, a.Of)
	}
	if a.Checksum != "" {
		want, err := ChecksumArtifact(&a)
		if err != nil {
			return nil, err
		}
		if a.Checksum != want {
			return nil, fmt.Errorf("%w: artifact says %s, content hashes to %s (shard %d/%d)",
				ErrArtifactChecksum, a.Checksum, want, a.Shard, a.Of)
		}
	}
	return &a, nil
}

// Grid returns the named grid of the artifact, if present.
func (a *ShardArtifact) Grid(name string) (*ShardGrid, bool) {
	for i := range a.Grids {
		if a.Grids[i].Name == name {
			return &a.Grids[i], true
		}
	}
	return nil, false
}

// MeanCellWall averages the persisted per-cell wall-clock timings over
// every grid of the artifact, returning the mean and the cell count —
// the prior ETA.Seed consumes.
func (a *ShardArtifact) MeanCellWall() (time.Duration, int) {
	var total int64
	cells := 0
	for _, g := range a.Grids {
		for _, c := range g.Results {
			total += c.WallNS
			cells++
		}
	}
	if cells == 0 {
		return 0, 0
	}
	return time.Duration(total / int64(cells)), cells
}

// MergeShards validates a complete shard set and reassembles the named
// grid's plan-ordered cell results for the Spec. Every artifact must
// carry the grid, agree on the shard count, and fingerprint-match the
// Spec's plan; together the artifacts must cover every plan cell
// exactly once. The returned slice feeds Assemble (or AssembleTuning)
// to reproduce the unsharded report byte for byte.
func MergeShards(s *Spec, name string, arts []*ShardArtifact) ([]CellResult, error) {
	if len(arts) == 0 {
		return nil, fmt.Errorf("harness: merge %s: no shard artifacts", name)
	}
	p := s.Plan()
	want := p.Fingerprint()
	of := arts[0].Of
	if len(arts) != of {
		return nil, fmt.Errorf("harness: merge %s: have %d artifacts, shard set is %d-way", name, len(arts), of)
	}
	results := make([]CellResult, p.Len())
	filled := make([]bool, p.Len())
	seenShard := make(map[int]bool, of)
	for _, a := range arts {
		if a.Of != of {
			return nil, fmt.Errorf("harness: merge %s: mixed shard counts %d and %d", name, of, a.Of)
		}
		if seenShard[a.Shard] {
			return nil, fmt.Errorf("harness: merge %s: shard %d/%d appears twice", name, a.Shard, of)
		}
		seenShard[a.Shard] = true
		g, ok := a.Grid(name)
		if !ok {
			return nil, fmt.Errorf("harness: merge: shard %d/%d has no grid %q", a.Shard, of, name)
		}
		if g.Cells != p.Len() || g.Fingerprint != want {
			return nil, fmt.Errorf("harness: merge %s: shard %d/%d was produced from a different plan "+
				"(fingerprint %s over %d cells, want %s over %d) — re-run the merge with the shard run's flags",
				name, a.Shard, of, g.Fingerprint, g.Cells, want, p.Len())
		}
		if err := checkTuningAxes(s, g.TuningAxes); err != nil {
			return nil, fmt.Errorf("harness: merge %s: shard %d/%d: %w", name, a.Shard, of, err)
		}
		for _, sc := range g.Results {
			if sc.Index < 0 || sc.Index >= p.Len() {
				return nil, fmt.Errorf("harness: merge %s: shard %d/%d holds cell %d of a %d-cell plan",
					name, a.Shard, of, sc.Index, p.Len())
			}
			if filled[sc.Index] {
				return nil, fmt.Errorf("harness: merge %s: cell %d present in more than one shard", name, sc.Index)
			}
			res, err := sc.CellResult()
			if err != nil {
				return nil, err
			}
			results[sc.Index] = res
			filled[sc.Index] = true
		}
	}
	var missing []int
	for i, ok := range filled {
		if !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		return nil, fmt.Errorf("harness: merge %s: %d of %d cells missing (first: %d) — is a shard file absent?",
			name, len(missing), p.Len(), missing[0])
	}
	return results, nil
}

// checkTuningAxes verifies a tuning grid's recorded axes against the
// merge-side Spec.
func checkTuningAxes(s *Spec, ax *ShardTuningAxes) error {
	if ax == nil {
		return nil
	}
	preds := s.Predictors()
	if len(ax.Predictors) != len(preds) {
		return fmt.Errorf("predictor axis mismatch: shard has %v, merge spec has %v", ax.Predictors, preds)
	}
	for i, p := range preds {
		if ax.Predictors[i] != p {
			return fmt.Errorf("predictor axis mismatch: shard has %v, merge spec has %v", ax.Predictors, preds)
		}
	}
	ctls := s.Controllers()
	if len(ax.Controllers) != len(ctls) {
		return fmt.Errorf("controller axis mismatch: shard has %d controllers, merge spec has %d",
			len(ax.Controllers), len(ctls))
	}
	for i, c := range ctls {
		if ax.Controllers[i].Name != c.Name || ax.Controllers[i].TrialsPerConfig != c.TrialsPerConfig {
			return fmt.Errorf("controller %d mismatch: shard has %s/%d, merge spec has %s/%d",
				i, ax.Controllers[i].Name, ax.Controllers[i].TrialsPerConfig, c.Name, c.TrialsPerConfig)
		}
	}
	if ax.PhaseBudget != s.PhaseBudget() {
		return fmt.Errorf("phase budget mismatch: shard has %g, merge spec has %g", ax.PhaseBudget, s.PhaseBudget())
	}
	return nil
}

// ParseShard parses a "-shard i/n" flag value.
func ParseShard(v string) (shard, of int, err error) {
	i, n, ok := strings.Cut(v, "/")
	if ok {
		if shard, err = strconv.Atoi(i); err == nil {
			of, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("harness: shard %q: want i/n (e.g. 0/4)", v)
	}
	if of < 1 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("harness: shard %q out of range: want 0 <= i < n", v)
	}
	return shard, of, nil
}
