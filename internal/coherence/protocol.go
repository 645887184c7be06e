package coherence

import (
	"fmt"

	"dsmphase/internal/cache"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
)

// Costs holds the protocol's fixed latencies in processor cycles, plus
// message sizes for the network model.
type Costs struct {
	// DirectoryCycles is the home directory/manager lookup time.
	DirectoryCycles uint64
	// CtrlBytes is the size of a control message (request, ack, inv).
	CtrlBytes int
	// DataBytes is the size of a data reply (line + header).
	DataBytes int
}

// DefaultCosts returns the latencies used with the Table I system.
func DefaultCosts() Costs {
	return Costs{DirectoryCycles: 10, CtrlBytes: 8, DataBytes: 40}
}

// AccessResult describes one completed load/store transaction. It is
// returned once per simulated load or store, so it stays within the Go
// compiler's limits for a struct kept in registers (at most 4 fields
// and 32 bytes): the two booleans share one flags field.
type AccessResult struct {
	// Done is the completion time in cycles.
	Done uint64
	// HitLevel is 1 for an L1 hit (or a resident page under IVY), 2 for
	// an L2 hit, 0 for a miss/fault that went to the home node.
	HitLevel int
	// Invalidations counts copies invalidated by this transaction: line
	// sharers under the directory backend, page copies under IVY.
	Invalidations int
	flags         accessFlags
}

// accessFlags are AccessResult's boolean outcomes.
type accessFlags uint8

const (
	flagRemote accessFlags = 1 << iota
	flagMemoryAccess
)

// remoteIf is flagRemote when remote holds.
func remoteIf(remote bool) accessFlags {
	if remote {
		return flagRemote
	}
	return 0
}

// Remote reports whether the transaction crossed the network (home,
// manager or owner on another node).
func (r AccessResult) Remote() bool { return r.flags&flagRemote != 0 }

// MemoryAccess reports whether SDRAM was read.
func (r AccessResult) MemoryAccess() bool { return r.flags&flagMemoryAccess != 0 }

// Stats aggregates protocol activity. The line-granular counters
// (L1Hits..Writebacks) are shared by both backends where they apply;
// the Page* counters are IVY's page-granular activity and stay zero
// under the directory backend. Conversely IVY never touches
// Invalidations or Writebacks, which count line-level events only.
type Stats struct {
	Loads          uint64
	Stores         uint64
	L1Hits         uint64
	L2Hits         uint64
	DirectoryTrips uint64
	RemoteTrips    uint64
	Invalidations  uint64
	Forwards       uint64
	Writebacks     uint64
	// PageFaults counts IVY access faults (page absent, or write to a
	// read-only page).
	PageFaults uint64
	// PageTransfers counts whole-page copies installed at a requester
	// (from home memory or from the current owner).
	PageTransfers uint64
	// PageInvalidations counts page copies removed from nodes by write
	// faults and ownership transfers.
	PageInvalidations uint64
}

// Protocol is the coherence-backend seam: the machine issues every
// load/store through it and otherwise treats the memory system as a
// black box. Implementations must be deterministic — identical call
// sequences produce identical results — because the simulator's
// byte-identical replay and sharding guarantees rest on it.
//
// The contract:
//
//   - Access executes one transaction atomically at the requester's
//     commit time and returns its completion time and classification.
//   - Home maps a byte address to the node that serves misses for its
//     coherence unit (line or page) — the machine's locality accounting
//     and the DDS home histograms are built on it.
//   - LineBytes is the coherence granularity in bytes (the cache line
//     for the directory backend, the page for IVY).
//   - Stats returns a snapshot of the counters; ResetStats zeroes them
//     and keeps every cache, directory, page and timing state, so a
//     caller can open a fresh measurement window mid-run.
//   - CheckInvariants validates the backend's global safety property
//     (directory-cache consistency, or SWMR over pages) for tests.
//   - Release ends the backend's simulation: it hands its storage back
//     for reuse — the directory backend's caches go to a per-geometry
//     pool that NewDirectory draws from — and drops its line or page
//     state. Stats stays valid afterwards; Access and CheckInvariants
//     panic. Release is idempotent.
type Protocol interface {
	Kind() Kind
	N() int
	LineBytes() uint64
	Home(addr uint64) int
	Access(now uint64, proc int, addr uint64, write bool) AccessResult
	Stats() Stats
	ResetStats()
	CheckInvariants() error
	Release()
}

// errReleased is the panic value of Access or CheckInvariants on a
// released backend.
var errReleased = protoError("coherence: protocol used after Release")

// Compile-time backend checks.
var (
	_ Protocol = (*DirectoryProtocol)(nil)
	_ Protocol = (*IVY)(nil)
)

// Kind names a coherence backend for configuration. The zero value is
// the directory backend, so zero-valued machine configs keep their
// historical (byte-identical) behavior.
type Kind int

const (
	// KindDirectory is the line-granular directory-MSI backend.
	KindDirectory Kind = iota
	// KindIVY is the page-granular IVY-style DSM backend.
	KindIVY
)

// String returns the configuration name of the kind.
func (k Kind) String() string {
	switch k {
	case KindDirectory:
		return "directory"
	case KindIVY:
		return "ivy"
	default:
		return fmt.Sprintf("protocol(%d)", int(k))
	}
}

// ParseKind converts a name to a Kind.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "directory":
		return KindDirectory, nil
	case "ivy":
		return KindIVY, nil
	default:
		return 0, fmt.Errorf("coherence: unknown protocol %q (want directory or ivy)", name)
	}
}

// Kinds returns every backend kind, in configuration-name order.
func Kinds() []Kind { return []Kind{KindDirectory, KindIVY} }

// DefaultPageBytes is the IVY page size when Params.PageBytes is zero.
const DefaultPageBytes = 4096

// Params assembles a coherence backend. It replaces the former
// positional New(n, l1cfg, l2cfg, memCfg, net, costs, home) signature.
type Params struct {
	// N is the processor (node) count, at most 64.
	N int
	// L1 and L2 configure the per-processor caches. IVY models no
	// hardware caches; it uses L1.HitCycles as the resident-page access
	// latency and ignores the rest.
	L1, L2 cache.Config
	// Mem configures each node's SDRAM.
	Mem memory.Config
	// Net is the interconnect; Net.Nodes() must equal N.
	Net network.Topology
	// Costs holds message sizes and controller latencies.
	Costs Costs
	// Home maps a coherence-unit address (line address for the
	// directory backend, page address for IVY) to its home node.
	Home HomeMap
	// PageBytes is IVY's page size (a power of two); zero selects
	// DefaultPageBytes. The directory backend ignores it.
	PageBytes int
}

// validate checks the parameters shared by every backend.
// MaxProcs is the largest supported system: directory sharer sets are
// one 64-bit mask.
const MaxProcs = 64

func (p Params) validate() {
	if p.N <= 0 {
		panic("coherence: need at least one processor")
	}
	if p.N > MaxProcs {
		panic("coherence: sharer bitmask limits the system to 64 processors")
	}
	if p.Net.Nodes() != p.N {
		panic("coherence: network size must match processor count")
	}
}

type protoError string

func (e protoError) Error() string { return string(e) }

func errf(format string, args ...any) error {
	return protoError(sprintf(format, args...))
}
