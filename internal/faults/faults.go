// Package faults is a deterministic, seeded fault-injection plane for
// the dsmphased coordinator. A Plan maps (shard, attempt) pairs to
// fault kinds through an internal/rng Hash64 chain — no global state,
// no wall clock — so two campaigns with the same seed replay the same
// fault schedule against the same dispatch sequence. Wrap installs the
// plane behind the service's Worker seam: the injector parses the
// -shard/-shard-dir handshake off the attempt's argument vector and
// sabotages the attempt before, during or after the wrapped worker
// runs (transient exec failures, slow starts, hangs-until-cancelled,
// crashes before the artifact write, torn cell-stream tails, corrupt,
// truncated or wrong-fingerprint artifacts). The corruption helpers in
// corrupt.go double as the disk-cache fault («corrupt cache entry»)
// for campaign harnesses.
//
// Schedules are deterministic and seeded, campaigns are checked by an
// oracle (service.RunChaos), and a campaign reproduces from its seed
// alone.
package faults

import (
	"fmt"
	"sync"
	"time"

	"dsmphase/internal/rng"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None leaves the attempt alone.
	None Kind = iota
	// TransientExec fails the attempt immediately, before the worker
	// process would start — a connection blip or fork failure.
	TransientExec
	// SlowStart delays the attempt by Plan.SlowStartDelay before
	// running it normally — exercises straggler/backoff interplay
	// without failing anything.
	SlowStart
	// Hang blocks until the attempt's context is cancelled — a wedged
	// worker only a per-attempt timeout can reclaim.
	Hang
	// CrashBeforeArtifact runs the shard to completion, then deletes
	// the artifact and reports failure — the worker died after its last
	// durable cell but before the artifact write. The cell stream
	// survives, so the retry resumes with zero recomputation.
	CrashBeforeArtifact
	// TornStream is CrashBeforeArtifact plus a torn cell-stream tail:
	// the stream's final line is cut mid-record, losing its last
	// durable cell — the crash landed mid-write.
	TornStream
	// CorruptArtifact silently flips a content value inside the written
	// artifact (a cell's wall_ns) and reports success. Format, shard
	// coordinates and fingerprint all stay valid; only the content
	// checksum can catch it.
	CorruptArtifact
	// TruncateArtifact cuts the written artifact in half and reports
	// success — a torn write the JSON parser catches.
	TruncateArtifact
	// WrongFingerprint rewrites the artifact's grid fingerprints (and
	// restamps the checksum, so the bytes are internally consistent)
	// and reports success — a worker that ran the wrong plan.
	WrongFingerprint

	numKinds
)

var kindNames = [numKinds]string{
	"none", "transient-exec", "slow-start", "hang", "crash-before-artifact",
	"torn-stream", "corrupt-artifact", "truncate-artifact", "wrong-fingerprint",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Weighted is one entry of a Plan's fault mix.
type Weighted struct {
	Kind   Kind
	Weight int
}

// DefaultMix is a balanced campaign mix: roughly 60% clean attempts,
// the rest spread over every fault kind.
func DefaultMix() []Weighted {
	return []Weighted{
		{None, 60},
		{TransientExec, 8},
		{SlowStart, 5},
		{Hang, 4},
		{CrashBeforeArtifact, 6},
		{TornStream, 5},
		{CorruptArtifact, 5},
		{TruncateArtifact, 4},
		{WrongFingerprint, 3},
	}
}

// Plan is a composable, seeded fault schedule. Draw is a pure function
// of (Seed, shard, attempt); the per-shard attempt counters (Next) are
// the only mutable state, and they advance deterministically because
// the dispatcher numbers a shard's attempts sequentially.
type Plan struct {
	// Seed keys the schedule; same seed, same draws.
	Seed uint64
	// Mix is the weighted fault distribution of ordinary attempts.
	// Empty means every draw is None.
	Mix []Weighted
	// ReliableAfter, when positive, forces attempts with index ≥
	// ReliableAfter to draw None — a plan that guarantees eventual
	// shard completion within the dispatcher's attempt budget.
	ReliableAfter int
	// VictimMix, when non-empty, marks shard Victim as doomed: its
	// attempts cycle through VictimMix instead of drawing from Mix,
	// ReliableAfter notwithstanding. The degraded-report path's fuel.
	Victim    int
	VictimMix []Kind
	// SlowStartDelay is the SlowStart stall (0 = 50ms).
	SlowStartDelay time.Duration

	mu       sync.Mutex
	attempts map[int]int
}

// Next returns the shard's next attempt ordinal (0-based), advancing
// the per-shard counter.
func (p *Plan) Next(shard int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.attempts == nil {
		p.attempts = map[int]int{}
	}
	n := p.attempts[shard]
	p.attempts[shard] = n + 1
	return n
}

// Draw maps (shard, attempt) to a fault kind — pure, order-free, and
// stable across processes for a given Seed.
func (p *Plan) Draw(shard, attempt int) Kind {
	if len(p.VictimMix) > 0 && shard == p.Victim {
		return p.VictimMix[attempt%len(p.VictimMix)]
	}
	if p.ReliableAfter > 0 && attempt >= p.ReliableAfter {
		return None
	}
	total := 0
	for _, w := range p.Mix {
		total += w.Weight
	}
	if total <= 0 {
		return None
	}
	h := rng.Hash64(p.Seed)
	h = rng.Hash64(h ^ uint64(shard+1))
	h = rng.Hash64(h ^ uint64(attempt+1))
	pick := int(h % uint64(total))
	for _, w := range p.Mix {
		pick -= w.Weight
		if pick < 0 {
			return w.Kind
		}
	}
	return None
}

func (p *Plan) slowStart() time.Duration {
	if p.SlowStartDelay > 0 {
		return p.SlowStartDelay
	}
	return 50 * time.Millisecond
}
