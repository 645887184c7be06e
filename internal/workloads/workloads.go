// Package workloads provides synthetic, executable stand-ins for the
// paper's Table II applications: SPLASH-2 LU and FMM, and SPEC-OMP Art
// and Equake (MinneSPEC-Large).
//
// The real applications cannot be run on this simulator (no compiler or
// binary front end exists), so each workload is rebuilt as a
// deterministic instruction-stream generator that preserves the
// observables phase detection depends on:
//
//   - per-phase basic-block composition (distinct static PCs per kernel,
//     realistic loop-branch structure for the gshare predictor),
//   - per-phase data placement and sharing (block ownership in LU,
//     spatial partitions in FMM/Equake, broadcast weight reads in Art),
//   - temporal structure (LU's shrinking trailing matrix, FMM and
//     Equake's timesteps, Art's train/test alternation),
//   - load imbalance (barrier arrival skew), which the machine turns
//     into CPI variance.
//
// See DESIGN.md §2 for the substitution argument.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"dsmphase/internal/isa"
)

// Size selects a scaled input set.
type Size int

const (
	// SizeTest is a seconds-scale input for unit tests.
	SizeTest Size = iota
	// SizeSmall is the default for benchmarks and quick experiments.
	SizeSmall
	// SizeFull approximates the paper's input scale (Table II).
	SizeFull
)

// String returns the size name.
func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	case SizeFull:
		return "full"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// ParseSize converts a name to a Size.
func ParseSize(name string) (Size, error) {
	switch name {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "full":
		return SizeFull, nil
	default:
		return 0, fmt.Errorf("workloads: unknown size %q (want test, small or full)", name)
	}
}

// Workload is one application the experiments run.
type Workload interface {
	// Name is the Table II application name (lowercase).
	Name() string
	// Description summarizes what the synthetic kernel models.
	Description() string
	// InputSet describes the input for the given size, in the style of
	// Table II.
	InputSet(sz Size) string
	// Threads instantiates the workload for an n-processor run. All
	// threads emit the same number of Sync (barrier) instructions.
	Threads(n int, sz Size, seed uint64) []isa.Thread
}

// The registry holds the built-in workloads (registered from init
// functions, definition hash 0) and any dynamically registered ones
// (DSL specs and ingested traces, keyed by their definition hash). A
// mutex guards it because the coordinator service registers dynamic
// workloads from request-handling goroutines.
var (
	registryMu sync.RWMutex
	registry   = map[string]Workload{}
	// defHashes maps dynamically registered names to the hash of their
	// canonical definition; built-ins are absent (hash 0).
	defHashes = map[string]uint64{}
)

// Register adds a built-in workload to the registry (called from init
// functions).
func Register(w Workload) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[w.Name()]; dup {
		panic("workloads: duplicate registration of " + w.Name())
	}
	registry[w.Name()] = w
}

// RegisterDynamic adds a runtime-defined workload (a parsed DSL spec or
// an ingested trace) under its definition hash. Re-registering the same
// name with the same hash is a no-op, so every worker process and every
// repeat submission can load the same spec file idempotently; the same
// name with a different definition — or colliding with a built-in — is
// an error, because live jobs and result caches key on the name's
// fingerprint staying stable. Bump the workload's name to change its
// definition.
func RegisterDynamic(w Workload, hash uint64) error {
	if hash == 0 {
		return fmt.Errorf("workloads: dynamic workload %q needs a non-zero definition hash", w.Name())
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, ok := defHashes[w.Name()]; ok {
		if prev == hash {
			return nil
		}
		return fmt.Errorf("workloads: %q is already registered with a different definition (hash %016x vs %016x); rename the workload to change its definition", w.Name(), prev, hash)
	}
	if _, builtin := registry[w.Name()]; builtin {
		return fmt.Errorf("workloads: %q collides with a built-in workload", w.Name())
	}
	registry[w.Name()] = w
	defHashes[w.Name()] = hash
	return nil
}

// DefinitionHash returns the definition hash a dynamic workload was
// registered under, or 0 for built-ins and unknown names. The harness
// folds non-zero hashes into plan fingerprints so two specs sharing a
// name but not a definition can never satisfy each other's artifacts.
func DefinitionHash(name string) uint64 {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return defHashes[name]
}

// ByName looks a workload up.
func ByName(name string) (Workload, error) {
	registryMu.RLock()
	w, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return w, nil
}

// Names returns the registered workload names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the registered workloads in name order.
func All() []Workload {
	names := Names()
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
