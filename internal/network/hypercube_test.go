package network

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidSizes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		h := New(n, DefaultConfig())
		if h.Nodes() != n {
			t.Errorf("Nodes = %d, want %d", h.Nodes(), n)
		}
		if 1<<h.Dimension() != n {
			t.Errorf("Dimension = %d for n=%d", h.Dimension(), n)
		}
	}
}

func TestNewInvalidSizePanics(t *testing.T) {
	for _, n := range []int{0, 3, 6, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			New(n, DefaultConfig())
		}()
	}
}

func TestHopsIsHammingDistance(t *testing.T) {
	h := New(32, DefaultConfig())
	f := func(a, b uint8) bool {
		i, j := int(a%32), int(b%32)
		return h.Hops(i, j) == bits.OnesCount(uint(i^j))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlits(t *testing.T) {
	h := New(2, DefaultConfig()) // 8-byte flits
	cases := map[int]int{0: 1, 1: 1, 8: 1, 9: 2, 32: 4, 33: 5}
	for bytes, want := range cases {
		if got := h.Flits(bytes); got != want {
			t.Errorf("Flits(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestSendSelfIsFree(t *testing.T) {
	h := New(8, DefaultConfig())
	if got := h.Send(100, 3, 3, 64); got != 100 {
		t.Errorf("self-send arrival = %d, want 100", got)
	}
	if h.Stats().Messages != 0 {
		t.Error("self-send must not count as a message")
	}
}

func TestSendUncontendedMatchesFormula(t *testing.T) {
	cfg := DefaultConfig()
	h := New(32, cfg)
	// 0 -> 31 is 5 hops.
	arr := h.Send(0, 0, 31, 32) // 4 flits
	want := h.UncontendedLatency(0, 31, 32)
	if arr != want {
		t.Errorf("arrival = %d, want %d", arr, want)
	}
	if h.Stats().TotalHops != 5 {
		t.Errorf("hops = %d, want 5", h.Stats().TotalHops)
	}
}

func TestSendContentionQueues(t *testing.T) {
	cfg := DefaultConfig()
	h := New(2, cfg)
	// Two messages at the same instant over the same link: the second
	// must depart after the first's serialization time.
	a1 := h.Send(0, 0, 1, 32)
	a2 := h.Send(0, 0, 1, 32)
	if a2 <= a1 {
		t.Errorf("second message (%d) must arrive after first (%d)", a2, a1)
	}
	serial := uint64(h.Flits(32)) * cfg.FlitCycles
	if a2-a1 != serial {
		t.Errorf("queueing delay = %d, want one serialization time %d", a2-a1, serial)
	}
	if h.Stats().QueueCycles == 0 {
		t.Error("queue cycles must be recorded")
	}
}

func TestSendDisjointPathsDontInterfere(t *testing.T) {
	h := New(4, DefaultConfig())
	// 0->1 uses dim-0 link at node 0; 2->3 uses dim-0 link at node 2.
	a1 := h.Send(0, 0, 1, 8)
	a2 := h.Send(0, 2, 3, 8)
	if a1 != a2 {
		t.Errorf("disjoint messages must have equal latency: %d vs %d", a1, a2)
	}
	if h.Stats().QueueCycles != 0 {
		t.Error("no queueing expected on disjoint paths")
	}
}

func TestSendDeterministic(t *testing.T) {
	run := func() []uint64 {
		h := New(8, DefaultConfig())
		var out []uint64
		for i := 0; i < 50; i++ {
			out = append(out, h.Send(uint64(i), i%8, (i*3+1)%8, 32))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: arrival time is never before the uncontended latency and the
// network never travels backward in time.
func TestSendLowerBoundProperty(t *testing.T) {
	h := New(16, DefaultConfig())
	now := uint64(0)
	f := func(srcR, dstR uint8, bytesR uint16, dt uint8) bool {
		now += uint64(dt)
		src, dst := int(srcR%16), int(dstR%16)
		bytes := int(bytesR % 256)
		arr := h.Send(now, src, dst, bytes)
		return arr >= now+h.UncontendedLatency(src, dst, bytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResetStats(t *testing.T) {
	h := New(2, DefaultConfig())
	h.Send(0, 0, 1, 8)
	h.ResetStats()
	if h.Stats() != (Stats{}) {
		t.Error("stats not cleared")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := New(4, DefaultConfig())
	h.Send(0, 0, 3, 40) // 2 hops, 5 flits
	s := h.Stats()
	if s.Messages != 1 || s.Bytes != 40 || s.TotalHops != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalLatency == 0 {
		t.Error("latency must be recorded")
	}
}

// refHypercube is the link table and routing loop Hypercube.Send used
// before the table was flattened: one busy slice per node, every
// dimension visited in ascending order and skipped when the address bit
// already matches. TestSendMatchesDimensionOrderReference holds Send to
// it.
type refHypercube struct {
	cfg   Config
	dim   int
	busy  [][]uint64
	stats Stats
}

func newRefHypercube(n int, cfg Config) *refHypercube {
	r := &refHypercube{cfg: cfg, dim: bits.TrailingZeros(uint(n)), busy: make([][]uint64, n)}
	for i := range r.busy {
		r.busy[i] = make([]uint64, r.dim)
	}
	return r
}

func (r *refHypercube) send(now uint64, src, dst int, payloadBytes int) uint64 {
	if src == dst {
		return now
	}
	flits := uint64((payloadBytes + r.cfg.FlitBytes - 1) / r.cfg.FlitBytes)
	if flits < 1 {
		flits = 1
	}
	serial := flits * r.cfg.FlitCycles
	t := now
	cur := src
	hops := 0
	for d := 0; d < r.dim; d++ {
		if (cur^dst)&(1<<d) == 0 {
			continue
		}
		link := &r.busy[cur][d]
		depart := t
		if *link > depart {
			r.stats.QueueCycles += *link - depart
			depart = *link
		}
		*link = depart + serial
		t = depart + r.cfg.RouterCycles + r.cfg.WireCycles
		cur ^= 1 << d
		hops++
	}
	t += (flits - 1) * r.cfg.FlitCycles
	r.stats.Messages++
	r.stats.Bytes += uint64(payloadBytes)
	r.stats.TotalLatency += t - now
	r.stats.TotalHops += uint64(hops)
	return t
}

// TestSendMatchesDimensionOrderReference replays random message
// sequences through Send and the per-dimension reference loop: every
// arrival time and every Stats field, QueueCycles included, must match.
// Send times mostly advance but also repeat (bursts that contend for
// the same links) and step back (a protocol reply computed ahead of
// another processor's earlier request), as they do in the machine.
func TestSendMatchesDimensionOrderReference(t *testing.T) {
	odd := Config{RouterCycles: 3, WireCycles: 11, FlitBytes: 16, FlitCycles: 7}
	for _, n := range []int{1, 2, 8, 32, 64} {
		for _, cfg := range []Config{DefaultConfig(), odd} {
			rng := rand.New(rand.NewSource(int64(n)))
			h, ref := New(n, cfg), newRefHypercube(n, cfg)
			now := uint64(1000)
			for i := 0; i < 5000; i++ {
				switch rng.Intn(4) {
				case 0:
				case 1:
					if now >= 100 {
						now -= uint64(rng.Intn(100))
					}
				default:
					now += uint64(rng.Intn(60))
				}
				src, dst, bytes := rng.Intn(n), rng.Intn(n), rng.Intn(130)
				got, want := h.Send(now, src, dst, bytes), ref.send(now, src, dst, bytes)
				if got != want {
					t.Fatalf("n=%d %+v message %d (%d->%d, %d B at %d): arrival %d, reference %d",
						n, cfg, i, src, dst, bytes, now, got, want)
				}
				if got := h.Stats(); got != ref.stats {
					t.Fatalf("n=%d %+v message %d: stats %+v, reference %+v", n, cfg, i, got, ref.stats)
				}
			}
			if n > 1 && ref.stats.QueueCycles == 0 {
				t.Errorf("n=%d %+v: the sequence never contended for a link", n, cfg)
			}
		}
	}
}
