// Package network models the paper's interconnect: a hypercube with
// wormhole switching, a 400 MHz pipelined router and 16 ns pin-to-pin
// latency (Table I). Timing is expressed in processor cycles (2 GHz by
// default, so 1 cycle = 0.5 ns).
//
// Messages follow deterministic e-cube (dimension-order) routing. Each
// unidirectional link keeps a busy-until timestamp; a flit stream
// occupies every link on its path for its serialization time, so
// concurrent traffic through shared links queues up — this is the
// contention the paper's DDV contention vector is designed to observe.
package network

import "math/bits"

// Config holds the network timing parameters in processor cycles.
type Config struct {
	// RouterCycles is the per-hop router pipeline delay
	// (400 MHz router at 2 GHz core: 5 cycles).
	RouterCycles uint64
	// WireCycles is the per-hop pin-to-pin wire delay
	// (16 ns at 2 GHz: 32 cycles).
	WireCycles uint64
	// FlitBytes is the flit width in bytes.
	FlitBytes int
	// FlitCycles is the serialization time of one flit on a link.
	FlitCycles uint64
}

// DefaultConfig returns the Table I network parameters for a 2 GHz core
// clock.
func DefaultConfig() Config {
	return Config{RouterCycles: 5, WireCycles: 32, FlitBytes: 8, FlitCycles: 4}
}

// Stats aggregates network activity.
type Stats struct {
	Messages     uint64
	Bytes        uint64
	TotalLatency uint64 // sum of end-to-end message latencies, cycles
	TotalHops    uint64
	QueueCycles  uint64 // cycles spent waiting for busy links
}

// Hypercube is a binary n-cube interconnect. The node count must be a
// power of two (1 is allowed and degenerates to no network).
type Hypercube struct {
	cfg   Config
	n     int
	dim   int
	busy  []uint64 // busy[node*dim+d]: busy-until of node's dimension-d link
	stats Stats
}

// New returns a hypercube with n nodes. It panics if n is not a positive
// power of two.
func New(n int, cfg Config) *Hypercube {
	if n <= 0 || n&(n-1) != 0 {
		panic("network: node count must be a positive power of two")
	}
	dim := bits.TrailingZeros(uint(n))
	return &Hypercube{cfg: cfg, n: n, dim: dim, busy: make([]uint64, n*dim)}
}

// Nodes returns the node count.
func (h *Hypercube) Nodes() int { return h.n }

// Dimension returns log2 of the node count.
func (h *Hypercube) Dimension() int { return h.dim }

// Diameter returns the maximum hop count (the cube dimension).
func (h *Hypercube) Diameter() int { return h.dim }

// Hops returns the hop count between nodes i and j (the Hamming distance
// of their addresses).
func (h *Hypercube) Hops(i, j int) int {
	return bits.OnesCount(uint(i ^ j))
}

// Flits returns the number of flits needed to carry a payload of the
// given size, always at least one (the header flit).
func (h *Hypercube) Flits(bytes int) int {
	f := (bytes + h.cfg.FlitBytes - 1) / h.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Send injects a message of the given payload size from src to dst at
// time now and returns its arrival time at dst; both must be nodes of
// the cube. src == dst returns now.
// Routing is e-cube: the differing address bits are corrected
// lowest-first, which makes the path — and therefore link contention —
// deterministic.
func (h *Hypercube) Send(now uint64, src, dst int, payloadBytes int) uint64 {
	if src == dst {
		return now
	}
	flits := uint64(h.Flits(payloadBytes))
	serial := flits * h.cfg.FlitCycles
	t := now
	cur := src
	hops := 0
	for diff := uint(src ^ dst); diff != 0; diff &= diff - 1 {
		d := bits.TrailingZeros(diff)
		link := &h.busy[cur*h.dim+d]
		depart := t
		if *link > depart {
			h.stats.QueueCycles += *link - depart
			depart = *link
		}
		// Wormhole: the worm occupies the link for its serialization
		// time; the head moves on after router + wire latency.
		*link = depart + serial
		t = depart + h.cfg.RouterCycles + h.cfg.WireCycles
		cur ^= 1 << d
		hops++
	}
	// The tail flit arrives serial cycles after the head.
	t += (flits - 1) * h.cfg.FlitCycles
	h.stats.Messages++
	h.stats.Bytes += uint64(payloadBytes)
	h.stats.TotalLatency += t - now
	h.stats.TotalHops += uint64(hops)
	return t
}

// Stats returns a copy of the accumulated statistics.
func (h *Hypercube) Stats() Stats { return h.stats }

// ResetStats zeroes the statistics (link busy state is preserved).
func (h *Hypercube) ResetStats() { h.stats = Stats{} }

// UncontendedLatency returns the end-to-end latency of a message between
// i and j on an idle network — useful for distance-matrix construction
// and sanity checks.
func (h *Hypercube) UncontendedLatency(i, j int, payloadBytes int) uint64 {
	if i == j {
		return 0
	}
	hops := uint64(h.Hops(i, j))
	flits := uint64(h.Flits(payloadBytes))
	return hops*(h.cfg.RouterCycles+h.cfg.WireCycles) + (flits-1)*h.cfg.FlitCycles
}
