package harness

import (
	"fmt"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/machine"
	"dsmphase/internal/predictor"
	"dsmphase/internal/workloads"
)

// The declarative experiment surface. A Spec describes a study as a
// grid — workloads × processor counts × detectors × replicates × named
// machine variants — and compiles it into the engine's Plan form. The
// figures, the ablation grids and the multi-seed confidence bands are
// all instances of the same grid, so they share one enumeration, one
// seeding discipline (DeriveSeed: order-free, per-replicate), one cache
// policy (TweakKey: variants share simulations across detectors) and
// one aggregation path (Report).

// Variant is one named machine configuration of an ablation grid. The
// zero variant is the baseline: untweaked Table I hardware.
type Variant struct {
	// Name labels the variant in reports ("baseline", "2x-contention").
	Name string
	// Key is the record-cache identity of the tweak. Cells of the same
	// variant that agree on the simulation half share one machine run.
	// An empty Key with a non-nil Tweak disables sharing (the engine
	// cannot compare function effects).
	Key string
	// Tweak adjusts the machine configuration before the run; nil for
	// the baseline.
	Tweak func(*machine.Config)
}

// Configuration identifies one aggregated cell of a Spec's grid: every
// replicate of a (variant, app, procs, protocol, detector) point folds
// into one Configuration's band.
type Configuration struct {
	Variant  Variant
	App      string
	Procs    int
	Protocol coherence.Kind
	Detector core.DetectorKind
}

// Label returns the configuration's display label
// ("lu 8P BBV+DDV [2x-contention]"; the baseline omits the bracket,
// and the default directory protocol omits its marker, so single-
// protocol grids keep their historical labels).
func (c Configuration) Label() string {
	l := fmt.Sprintf("%s %dP %s", c.App, c.Procs, c.Detector)
	if c.Protocol != coherence.KindDirectory {
		l += " " + c.Protocol.String()
	}
	if c.Variant.Name != "" && c.Variant.Name != "baseline" {
		l += " [" + c.Variant.Name + "]"
	}
	return l
}

// Spec declaratively describes an experiment grid. Build one with
// NewSpec and functional options, compile it with Plan, or execute and
// aggregate it with Run.
type Spec struct {
	apps       []string
	procs      []int
	kinds      []core.DetectorKind
	protocols  []coherence.Kind
	size       workloads.Size
	interval   uint64
	seed       uint64
	replicates int
	variants   []Variant

	// Tuning axes (TuningHook and AssembleTuning only).
	predictors  []string
	controllers []ControllerSpec
	phaseBudget float64
}

// ControllerSpec names one tuning-controller configuration of a tuning
// grid: a trial-and-error controller that measures each hardware
// configuration for TrialsPerConfig intervals before locking in.
type ControllerSpec struct {
	// Name labels the controller in scorecards ("trial-1").
	Name string
	// TrialsPerConfig is how many intervals each configuration is
	// trialled per phase (averaging suppresses noise at the cost of more
	// tuning intervals).
	TrialsPerConfig int
}

// Option configures a Spec.
type Option func(*Spec)

// NewSpec returns a Spec with the paper's defaults: the four Table II
// applications, 8 processors, the BBV detector, small inputs, the
// reduced 300k sampling interval, seed 1, one replicate, baseline
// hardware.
func NewSpec(opts ...Option) *Spec {
	s := &Spec{
		procs:      []int{8},
		kinds:      []core.DetectorKind{core.DetectorBBV},
		size:       workloads.SizeSmall,
		seed:       1,
		replicates: 1,
		variants:   []Variant{{Name: "baseline"}},
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// WithApps selects the applications. A single panel alias ("paper",
// "extended") expands to its member list; empty keeps the paper panel.
func WithApps(apps ...string) Option {
	return func(s *Spec) { s.apps = apps }
}

// WithProcs selects the processor counts.
func WithProcs(procs ...int) Option {
	return func(s *Spec) { s.procs = procs }
}

// WithDetectors selects the detector kinds swept over each simulation.
// Detectors are sweep-only, so every kind of a (variant, app, procs,
// replicate) point shares one machine run through the record cache.
func WithDetectors(kinds ...core.DetectorKind) Option {
	return func(s *Spec) { s.kinds = kinds }
}

// WithProtocols selects the coherence backends swept as a grid
// dimension. Each protocol is a distinct simulation (unlike detectors,
// which sweep a shared run). Empty keeps the default directory-only
// axis, which reproduces pre-seam grids byte for byte.
func WithProtocols(kinds ...coherence.Kind) Option {
	return func(s *Spec) { s.protocols = kinds }
}

// WithSize selects the workload input scale.
func WithSize(size workloads.Size) Option {
	return func(s *Spec) { s.size = size }
}

// WithInterval sets the total system sampling interval; each processor
// samples interval/procs instructions (the paper's 3M/n rule). 0 keeps
// the reduced-input 300k default.
func WithInterval(interval uint64) Option {
	return func(s *Spec) { s.interval = interval }
}

// WithSeed sets the base seed. Replicate 0 runs the base seed itself
// (so a one-replicate Spec reproduces the legacy single-seed figures
// byte for byte); further replicates derive order-free seeds with
// DeriveSeed.
func WithSeed(seed uint64) Option {
	return func(s *Spec) { s.seed = seed }
}

// WithReplicates sets how many seeds each configuration runs. n > 1
// turns every configuration's result into a mean ± 95% CI band.
// Values below 1 are treated as 1.
func WithReplicates(n int) Option {
	return func(s *Spec) {
		if n < 1 {
			n = 1
		}
		s.replicates = n
	}
}

// WithTweak appends a named machine variant to the grid — one row of an
// ablation study. key is the record-cache identity: detectors sweeping
// the same tweaked simulation share one machine run. The baseline
// variant stays in the grid so reports can diff against it; drop it
// with WithoutBaseline.
func WithTweak(name, key string, tweak func(*machine.Config)) Option {
	return func(s *Spec) {
		s.variants = append(s.variants, Variant{Name: name, Key: key, Tweak: tweak})
	}
}

// WithoutBaseline removes the implicit baseline variant, leaving only
// the variants added with WithTweak.
func WithoutBaseline() Option {
	return func(s *Spec) {
		kept := s.variants[:0]
		for _, v := range s.variants {
			if v.Tweak != nil || v.Key != "" || (v.Name != "" && v.Name != "baseline") {
				kept = append(kept, v)
			}
		}
		s.variants = kept
	}
}

// WithPredictors selects the phase predictors of a tuning grid by
// registry name ("last-phase", "markov", "run-length"). Empty keeps the
// full registry. Only a tuning grid consumes this axis.
func WithPredictors(names ...string) Option {
	return func(s *Spec) { s.predictors = names }
}

// WithControllers selects the tuning controllers of a tuning grid. Empty
// keeps DefaultControllers. Only a tuning grid consumes this axis.
func WithControllers(specs ...ControllerSpec) Option {
	return func(s *Spec) { s.controllers = specs }
}

// WithPhaseBudget sets the maximum number of phases a controller is
// willing to tune; the detector's operating thresholds are chosen as the
// lowest-CoV point of its CoV curve within this budget (the paper's
// prescription). Values ≤ 0 keep the default budget of 8. Only
// a tuning grid consumes this knob.
func WithPhaseBudget(budget float64) Option {
	return func(s *Spec) { s.phaseBudget = budget }
}

// Predictors returns the resolved predictor names of the tuning grid.
func (s *Spec) Predictors() []string {
	if len(s.predictors) == 0 {
		return predictor.Names()
	}
	return append([]string(nil), s.predictors...)
}

// Controllers returns the resolved controller specs of the tuning grid.
func (s *Spec) Controllers() []ControllerSpec {
	if len(s.controllers) == 0 {
		return DefaultControllers()
	}
	return append([]ControllerSpec(nil), s.controllers...)
}

// PhaseBudget returns the resolved tuning phase budget.
func (s *Spec) PhaseBudget() float64 {
	if s.phaseBudget <= 0 {
		return DefaultPhaseBudget
	}
	return s.phaseBudget
}

// Replicates returns the configured replicate count.
func (s *Spec) Replicates() int { return s.replicates }

// Size returns the configured input scale.
func (s *Spec) Size() workloads.Size { return s.size }

// Seed returns the configured base seed.
func (s *Spec) Seed() uint64 { return s.seed }

// Apps returns the resolved application list.
func (s *Spec) Apps() []string { return ResolveApps(s.apps) }

// Protocols returns the resolved coherence-backend axis (the directory
// backend when none were selected).
func (s *Spec) Protocols() []coherence.Kind {
	if len(s.protocols) == 0 {
		return []coherence.Kind{coherence.KindDirectory}
	}
	return append([]coherence.Kind(nil), s.protocols...)
}

// Configurations enumerates the grid's aggregated cells in report
// order: variant-major, then application, processor count, protocol,
// detector — the same order the legacy figures used (the protocol axis
// is degenerate by default), so a one-replicate, baseline-only Spec
// reproduces their output exactly. Protocol sits outside the detector
// axis so detector sweeps still share each protocol's simulation.
func (s *Spec) Configurations() []Configuration {
	var out []Configuration
	for _, v := range s.variants {
		for _, app := range s.Apps() {
			for _, procs := range s.procs {
				for _, proto := range s.Protocols() {
					for _, kind := range s.kinds {
						out = append(out, Configuration{
							Variant: v, App: app, Procs: procs, Protocol: proto, Detector: kind,
						})
					}
				}
			}
		}
	}
	return out
}

// replicateSeed returns the seed replicate r of a configuration runs.
// Replicate 0 is the base seed (legacy identity); later replicates hash
// their coordinates through DeriveSeed, so the seed assignment is
// independent of enumeration order and worker count.
func (s *Spec) replicateSeed(app string, procs, r int) uint64 {
	if r == 0 {
		return s.seed
	}
	return DeriveSeed(s.seed, app, procs, r)
}

// Plan compiles the Spec into the engine's cell list. Cells are laid
// out configuration-major with replicates innermost, so cell index =
// config·replicates + replicate; Run relies on this layout to fold
// results back into per-configuration bands.
func (s *Spec) Plan() *Plan {
	p := NewPlan()
	for _, cfg := range s.Configurations() {
		for r := 0; r < s.replicates; r++ {
			p.AddCell(Cell{
				Run: RunConfig{
					Workload:             cfg.App,
					Size:                 s.size,
					Procs:                cfg.Procs,
					IntervalInstructions: perProcInterval(s.interval, cfg.Procs),
					Seed:                 s.replicateSeed(cfg.App, cfg.Procs, r),
					Protocol:             cfg.Protocol,
					Tweak:                cfg.Variant.Tweak,
				},
				Kind:     cfg.Detector,
				TweakKey: cfg.Variant.Key,
			})
		}
	}
	return p
}

// perProcInterval splits a total sampling interval across processors;
// 0 derives the reduced-input 300k default (paper scale is 3M on full
// inputs).
func perProcInterval(total uint64, procs int) uint64 {
	if total > 0 {
		return total / uint64(procs)
	}
	return 300_000 / uint64(procs)
}

// Panels: named application sets for -apps style flags.
var panels = map[string][]string{
	// The paper's Table II panel, in figure order.
	"paper": {"fmm", "lu", "equake", "art"},
	// The paper panel plus the remaining Table II SPLASH-2 codes.
	"extended": {"fmm", "lu", "equake", "art", "ocean", "radix", "barnes", "water"},
	// Coherence-protocol stress kernels: pathological sharing patterns
	// that separate the directory and IVY backends.
	"adversarial": {"fsstencil", "pagethrash"},
}

// AppsPanel returns a named application panel ("paper", "extended",
// "adversarial").
func AppsPanel(name string) ([]string, bool) {
	p, ok := panels[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), p...), true
}

// ResolveApps expands panel aliases to their member lists — anywhere
// in the list, so mixed forms like "paper,fsstencil" work — and
// order-preservingly dedupes the result; empty resolves to the paper
// panel. Non-alias names pass through untouched.
func ResolveApps(apps []string) []string {
	if len(apps) == 0 {
		apps, _ := AppsPanel("paper")
		return apps
	}
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, a := range apps {
		if p, ok := AppsPanel(a); ok {
			for _, name := range p {
				add(name)
			}
		} else {
			add(a)
		}
	}
	return out
}
