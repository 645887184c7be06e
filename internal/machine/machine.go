package machine

import (
	"fmt"
	"math"
	"math/bits"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
	"dsmphase/internal/cpu"
	"dsmphase/internal/isa"
	"dsmphase/internal/network"
)

// proc is one simulated processor's private state.
type proc struct {
	id    int
	clock float64 // local cycle count
	model *cpu.Model
	acc   *core.Accumulator
	wss   core.WSSignature
	freq  *core.FrequencyMatrix
	// table is the online footprint table (nil when classification is
	// offline-only).
	table *core.FootprintTable

	thread  isa.Thread
	emitter *isa.Emitter
	buf     []isa.Inst
	pos     int

	done      bool
	atBarrier bool

	intervalStart float64
	instrs        uint64 // non-sync instructions in current interval
	intervalIdx   int
	localAcc      uint64
	remoteAcc     uint64

	totalInstrs uint64
	totalSync   uint64

	records []core.IntervalSignature
}

// Machine is one assembled DSM system plus the workload threads bound to
// its processors.
type Machine struct {
	cfg   Config
	procs []*proc
	net   network.Topology
	proto coherence.Protocol
	// home duplicates the protocol's byte-address→home mapping as a
	// concrete, inlinable HomeMap: every backend homes an address at
	// (addr >> HomeShift) % Procs regardless of its coherence granule,
	// and the commit loop calls it once per memory access — an
	// interface dispatch there costs measurable throughput.
	home coherence.HomeMap
	dist *core.DistanceMatrix

	// scratch for interval-end DDS gathering (reused every interval so
	// the endInterval path does not allocate)
	gatherVecs [][]uint64
	contention []uint64
	// bbvArena backs the BBV snapshots stored in interval records: one
	// chunk serves bbvArenaChunk intervals, so steady-state recording
	// allocates once per chunk instead of once per interval.
	bbvArena []float64
	barriers uint64
}

// bbvArenaChunk is the number of interval BBV snapshots carved from one
// arena allocation.
const bbvArenaChunk = 128

// nextBBV returns a fresh arena-backed slice for one interval's BBV.
func (m *Machine) nextBBV() []float64 {
	size := m.cfg.AccumulatorSize
	if len(m.bbvArena) < size {
		m.bbvArena = make([]float64, bbvArenaChunk*size)
	}
	out := m.bbvArena[:size:size]
	m.bbvArena = m.bbvArena[size:]
	return out
}

// New assembles a machine and binds one thread per processor. The number
// of threads must equal cfg.Procs.
func New(cfg Config, threads []isa.Thread) *Machine {
	if cfg.Procs <= 0 {
		panic("machine: need at least one processor")
	}
	if len(threads) != cfg.Procs {
		panic(fmt.Sprintf("machine: %d threads for %d processors", len(threads), cfg.Procs))
	}
	if cfg.IntervalInstructions == 0 {
		panic("machine: interval length must be positive")
	}
	net := network.NewTopology(cfg.Topology, cfg.Procs, cfg.Net)
	params := coherence.Params{
		N: cfg.Procs, L1: cfg.L1, L2: cfg.L2, Mem: cfg.Mem,
		Net: net, Costs: cfg.Costs,
	}
	var proto coherence.Protocol
	switch cfg.Protocol {
	case coherence.KindDirectory:
		// home(line) = (line·lineBytes >> HomeShift) % Procs, expressed
		// as a precomputed shift-and-mod HomeMap (AddrAt's inverse).
		lineShift := uint(bits.TrailingZeros(uint(cfg.L2.LineBytes)))
		params.Home = coherence.NewHomeMap(HomeShift-lineShift, cfg.Procs)
		proto = coherence.NewDirectory(params)
	case coherence.KindIVY:
		pageB := cfg.PageBytes
		if pageB == 0 {
			pageB = coherence.DefaultPageBytes
		}
		pageShift := uint(bits.TrailingZeros(uint(pageB)))
		params.PageBytes = pageB
		params.Home = coherence.NewHomeMap(HomeShift-pageShift, cfg.Procs)
		proto = coherence.NewIVY(params)
	default:
		panic("machine: unknown coherence protocol " + cfg.Protocol.String())
	}
	var dist *core.DistanceMatrix
	if cfg.UniformDistance {
		dist = core.UniformDistanceMatrix(cfg.Procs)
	} else {
		dist = core.NewDistanceMatrix(cfg.Procs, net.Hops)
	}
	m := &Machine{cfg: cfg, net: net, proto: proto,
		home: coherence.NewHomeMap(HomeShift, cfg.Procs), dist: dist}
	m.gatherVecs = make([][]uint64, cfg.Procs)
	for i := range m.gatherVecs {
		m.gatherVecs[i] = make([]uint64, cfg.Procs)
	}
	m.contention = make([]uint64, cfg.Procs)
	// With a declared instruction budget the per-processor interval
	// count is bounded; pre-size the record slices so recording never
	// regrows them.
	recordCap := 0
	if cfg.MaxInstructions > 0 {
		recordCap = int(cfg.MaxInstructions/cfg.IntervalInstructions) + 1
	}
	m.procs = make([]*proc, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		p := &proc{
			id:      i,
			model:   cpu.NewModel(cfg.CPU),
			acc:     core.NewAccumulator(cfg.AccumulatorSize),
			freq:    core.NewFrequencyMatrix(cfg.Procs),
			thread:  threads[i],
			emitter: isa.NewEmitter(4096),
		}
		if recordCap > 0 {
			p.records = make([]core.IntervalSignature, 0, recordCap)
		}
		if oc := cfg.Online; oc != nil {
			p.table = core.NewKindTable(oc.Kind, cfg.FootprintSize, oc.ThBBV, oc.ThDDS)
		}
		m.procs[i] = p
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Network exposes the interconnect (statistics).
func (m *Machine) Network() network.Topology { return m.net }

// Protocol exposes the coherence engine (statistics, invariants).
func (m *Machine) Protocol() coherence.Protocol { return m.proto }

// Release ends the machine's simulation: the coherence backend hands its
// caches back for reuse by later machines and drops its line or page
// state. Records, Network and Protocol().Stats() stay valid; the machine
// must not run again, and Protocol().CheckInvariants panics.
func (m *Machine) Release() { m.proto.Release() }

// Distance exposes the distance matrix used for DDS computation.
func (m *Machine) Distance() *core.DistanceMatrix { return m.dist }

// Summary reports whole-run statistics.
type Summary struct {
	Instructions uint64  // committed, including sync
	SyncInstrs   uint64  // barrier arrivals
	Cycles       float64 // max processor clock
	Intervals    int     // total recorded intervals across processors
	Barriers     uint64  // barrier episodes released
	IPC          float64 // aggregate committed instructions per cycle
	// LocalAccesses and RemoteAccesses total the committed memory
	// operations of every recorded interval, split by whether the line's
	// home is the issuing node (the paper's data-distribution signal).
	LocalAccesses  uint64
	RemoteAccesses uint64
}

// RemoteFraction returns the share of recorded memory accesses whose
// home is a remote node, or 0 for a run without memory accesses.
func (s Summary) RemoteFraction() float64 {
	total := s.LocalAccesses + s.RemoteAccesses
	if total == 0 {
		return 0
	}
	return float64(s.RemoteAccesses) / float64(total)
}

// errDeadlock reports a scheduling dead end: no runnable processor, but
// not every live processor is waiting at the barrier.
var errDeadlock = fmt.Errorf("machine: deadlock — no runnable processor, not all at barrier")

// Run drives all threads to completion and returns the run summary.
// Scheduling uses the run-until-horizon loop (sched.go) unless the
// configuration selects the naive per-instruction oracle; both produce
// byte-identical observable output.
func (m *Machine) Run() (Summary, error) {
	var err error
	if m.cfg.NaiveScheduler {
		err = m.runNaive()
	} else {
		err = m.runHorizon()
	}
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	for _, p := range m.procs {
		s.Instructions += p.totalInstrs
		s.SyncInstrs += p.totalSync
		s.Intervals += len(p.records)
		if p.clock > s.Cycles {
			s.Cycles = p.clock
		}
		for _, r := range p.records {
			s.LocalAccesses += r.LocalAccesses
			s.RemoteAccesses += r.RemoteAccesses
		}
	}
	s.Barriers = m.barriers
	if s.Cycles > 0 {
		s.IPC = float64(s.Instructions) / s.Cycles
	}
	return s, nil
}

// pickRunnable returns the runnable processor with the smallest clock,
// or nil. Ties break to the LOWEST processor ID — the scan visits
// processors in ID order and replaces best only on a strictly smaller
// clock — which is the determinism contract the horizon scheduler's
// heap order (procLess) must and does reproduce; TestPickRunnableTieBreak
// pins it on both schedulers.
func (m *Machine) pickRunnable() *proc {
	var best *proc
	for _, p := range m.procs {
		if p.done || p.atBarrier {
			continue
		}
		if best == nil || p.clock < best.clock {
			best = p
		}
	}
	return best
}

func (m *Machine) allDone() bool {
	for _, p := range m.procs {
		if !p.done {
			return false
		}
	}
	return true
}

// allBlocked reports whether every live processor is waiting at the
// barrier (finished processors count as arrived).
func (m *Machine) allBlocked() bool {
	arrived := false
	for _, p := range m.procs {
		if p.done {
			continue
		}
		if !p.atBarrier {
			return false
		}
		arrived = true
	}
	return arrived
}

// releaseBarrier opens the barrier: all waiting processors resume at the
// latest arrival time plus the barrier overhead. The wait cycles accrue
// to each processor's clock — and therefore to its interval CPI — which
// is how load imbalance becomes visible to the phase detectors.
func (m *Machine) releaseBarrier() {
	var latest float64
	for _, p := range m.procs {
		if p.atBarrier && p.clock > latest {
			latest = p.clock
		}
	}
	release := latest + m.cfg.BarrierCycles
	for _, p := range m.procs {
		if p.atBarrier {
			p.clock = release
			p.atBarrier = false
		}
	}
	m.barriers++
}

// fill makes p.buf[p.pos] the thread's next instruction, pulling
// batches as needed. It reports false — marking p done — once the
// thread has run to completion. The buffered fast path inlines.
func (p *proc) fill() bool {
	return p.pos < len(p.buf) || p.refill()
}

// refill pulls batches until one is non-empty; a thread may
// legitimately emit several empty batches (e.g. skipping work items it
// does not own).
func (p *proc) refill() bool {
	for {
		p.emitter.Reset()
		if !p.thread.NextBatch(p.emitter) {
			// A partial trailing interval is dropped, matching the
			// paper's whole-interval accounting.
			p.done = true
			return false
		}
		if p.emitter.Len() > 0 {
			p.buf = p.emitter.Take()
			p.pos = 0
			return true
		}
	}
}

// step commits one instruction on p.
func (m *Machine) step(p *proc) error {
	if !p.fill() {
		return nil
	}
	return m.commit(p)
}

// shared reports whether committing in, p's next instruction, is a
// shared event — one whose outcome depends on its place in the global
// (clock, id) order: a load or store (protocol, network, and the F
// vectors other processors' interval ends read), the instruction that
// closes p's interval (it gathers every F vector and may occupy the
// network), or the one over the budget (the error names p). A barrier
// arrival is private: the release time is the latest arrival clock in
// any order.
func (m *Machine) shared(p *proc, in *isa.Inst) bool {
	if in.Op.IsMem() {
		return true
	}
	if in.Op != isa.OpSync && p.instrs+1 >= m.cfg.IntervalInstructions {
		return true
	}
	return m.cfg.MaxInstructions > 0 && p.totalInstrs >= m.cfg.MaxInstructions
}

// commit executes p.buf[p.pos], which fill has made available.
func (m *Machine) commit(p *proc) error {
	in := p.buf[p.pos]
	p.pos++

	if m.cfg.MaxInstructions > 0 && p.totalInstrs >= m.cfg.MaxInstructions {
		return fmt.Errorf("machine: processor %d exceeded instruction budget %d", p.id, m.cfg.MaxInstructions)
	}
	p.totalInstrs++
	p.wss.Touch(in.PC)

	var cost float64
	switch in.Op {
	case isa.OpSync:
		p.totalSync++
		p.clock += p.model.Cost(in, 0)
		p.atBarrier = true
		return nil
	case isa.OpBranch:
		cost = p.model.Cost(in, 0)
		p.acc.Branch(in.PC)
	case isa.OpLoad, isa.OpStore:
		now := uint64(p.clock)
		res := m.proto.Access(now, p.id, in.Addr, in.Op == isa.OpStore)
		stall := float64(res.Done-now) - float64(m.cfg.L1.HitCycles)
		if stall < 0 {
			stall = 0
		}
		cost = p.model.Cost(in, stall)
		home := m.home.Home(in.Addr)
		p.freq.Access(home)
		if home == p.id {
			p.localAcc++
		} else {
			p.remoteAcc++
		}
		p.acc.Instruction()
	default:
		cost = p.model.Cost(in, 0)
		p.acc.Instruction()
	}
	p.clock += cost
	p.instrs++
	if p.instrs >= m.cfg.IntervalInstructions {
		m.endInterval(p)
	}
	return nil
}

// endInterval closes processor p's sampling interval: it gathers the F_i
// vectors from every processor (resetting them, per the protocol in the
// paper), computes the contention vector and the DDS, snapshots the BBV
// accumulator, and records the interval signature.
func (m *Machine) endInterval(p *proc) {
	n := m.cfg.Procs
	for q := 0; q < n; q++ {
		m.gatherVecs[q] = m.procs[q].freq.QueryAndReset(p.id, m.gatherVecs[q])
	}
	m.contention = core.SumContention(m.gatherVecs, m.contention)
	raw, norm := core.ComputeDDS(p.id, m.gatherVecs[p.id], m.contention, m.dist, m.cfg.DDS)

	if m.cfg.ChargeDDSGather && n > 1 {
		// The exchange is n-1 request/reply pairs; the processor waits
		// for the slowest reply (each reply carries n counters).
		t := uint64(p.clock)
		latest := t
		for q := 0; q < n; q++ {
			if q == p.id {
				continue
			}
			arr := m.net.Send(t, p.id, q, m.cfg.Costs.CtrlBytes)
			back := m.net.Send(arr, q, p.id, 8*n)
			if back > latest {
				latest = back
			}
		}
		p.clock += float64(latest - t)
	}

	cycles := p.clock - p.intervalStart
	bbv := p.acc.SnapshotInto(m.nextBBV())
	phaseID := -1
	if p.table != nil {
		phaseID, _ = p.table.Classify(bbv, norm)
	}
	p.records = append(p.records, core.IntervalSignature{
		Proc:           p.id,
		Index:          p.intervalIdx,
		BBV:            bbv,
		WSS:            p.wss,
		DDS:            norm,
		RawDDS:         raw,
		PhaseID:        phaseID,
		Instructions:   p.instrs,
		Cycles:         uint64(math.Round(cycles)),
		LocalAccesses:  p.localAcc,
		RemoteAccesses: p.remoteAcc,
	})
	p.acc.Reset()
	p.wss.Reset()
	p.instrs = 0
	p.localAcc = 0
	p.remoteAcc = 0
	p.intervalStart = p.clock
	p.intervalIdx++
}

// RecordsByProc returns the recorded interval signatures, one slice per
// processor, in execution order.
func (m *Machine) RecordsByProc() [][]core.IntervalSignature {
	out := make([][]core.IntervalSignature, len(m.procs))
	for i, p := range m.procs {
		out[i] = p.records
	}
	return out
}

// Records returns all interval signatures flattened (processor-major).
func (m *Machine) Records() []core.IntervalSignature {
	total := 0
	for _, p := range m.procs {
		total += len(p.records)
	}
	out := make([]core.IntervalSignature, 0, total)
	for _, p := range m.procs {
		out = append(out, p.records...)
	}
	return out
}

// GshareAccuracy returns the run-wide branch prediction accuracy.
func (m *Machine) GshareAccuracy() float64 {
	var look, miss uint64
	for _, p := range m.procs {
		look += p.model.Gshare().Lookups()
		miss += p.model.Gshare().Mispredicts()
	}
	if look == 0 {
		return 1
	}
	return 1 - float64(miss)/float64(look)
}
