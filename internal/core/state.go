package core

// Multiprogramming support (paper §III-B): "In a multiprogrammed
// environment, the phase identification information can be incorporated
// into the thread's state on a context switch. Alternatively, phase
// information associated with threads can be cleared at the expense of
// more tuning." TableState captures a footprint table's contents so an
// OS can swap detector state with the thread; the alternative — Reset()
// on every switch — forces phases to be re-discovered and re-tuned.

// TableState is a serializable snapshot of a FootprintTable.
type TableState struct {
	Entries   []FootprintEntry
	NextPhase int
	Clock     uint64
}

// Snapshot captures the table's current contents. The returned state is
// independent of the table (deep-copied signatures).
func (t *FootprintTable) Snapshot() TableState {
	st := TableState{
		Entries:   make([]FootprintEntry, len(t.entries)),
		NextPhase: t.nextPhase,
		Clock:     t.clock,
	}
	for i, e := range t.entries {
		st.Entries[i] = FootprintEntry{
			BBV:     append([]float64(nil), e.BBV...),
			DDS:     e.DDS,
			PhaseID: e.PhaseID,
			lastUse: e.lastUse,
			valid:   e.valid,
		}
	}
	return st
}

// Restore replaces the table's contents with a previously captured
// snapshot. The snapshot must come from a table of the same size.
func (t *FootprintTable) Restore(st TableState) {
	if len(st.Entries) != len(t.entries) {
		panic("core: TableState size mismatch")
	}
	for i, e := range st.Entries {
		t.entries[i] = FootprintEntry{
			BBV:     append([]float64(nil), e.BBV...),
			DDS:     e.DDS,
			PhaseID: e.PhaseID,
			lastUse: e.lastUse,
			valid:   e.valid,
		}
	}
	t.nextPhase = st.NextPhase
	t.clock = st.Clock
}

// ContextSwitchPolicy selects what happens to detector state when the
// OS switches threads on a processor.
type ContextSwitchPolicy int

const (
	// SwitchSaveRestore swaps the footprint table with the thread.
	SwitchSaveRestore ContextSwitchPolicy = iota
	// SwitchClear resets the table, re-discovering phases after every
	// switch (cheaper hardware, more tuning).
	SwitchClear
)

// MultiprogramReplay classifies several threads' interval signature
// sequences through ONE shared hardware detector, interleaving the
// threads round-robin with the given quantum (intervals per scheduling
// slice), under the chosen context-switch policy. It returns the phase
// IDs assigned to each thread's intervals and the total number of
// distinct phases allocated (a proxy for tuning cost).
func MultiprogramReplay(kind DetectorKind, tableSize int, thBBV, thDDS float64,
	threads [][]IntervalSignature, quantum int, policy ContextSwitchPolicy) (ids [][]int, phasesAllocated int) {
	if quantum <= 0 {
		panic("core: quantum must be positive")
	}
	mk := func() *FootprintTable { return NewKindTable(kind, tableSize, thBBV, thDDS) }
	ids = make([][]int, len(threads))
	pos := make([]int, len(threads))
	for i, th := range threads {
		ids[i] = make([]int, len(th))
	}
	// Save/restore is semantically a per-thread persistent table (the
	// hardware swaps the table image with the thread); clear gets a
	// fresh table every scheduling slice. Phase IDs are made globally
	// unique with a running offset so the outputs of different threads
	// never alias.
	perThread := make([]*FootprintTable, len(threads))
	allocBase := 0
	remaining := func() bool {
		for i := range threads {
			if pos[i] < len(threads[i]) {
				return true
			}
		}
		return false
	}
	for cur := 0; remaining(); cur = (cur + 1) % len(threads) {
		if pos[cur] >= len(threads[cur]) {
			continue
		}
		var table *FootprintTable
		var base int
		switch policy {
		case SwitchSaveRestore:
			if perThread[cur] == nil {
				perThread[cur] = mk()
			}
			table = perThread[cur]
			base = 0 // per-thread IDs offset at the end
		case SwitchClear:
			table = mk()
			base = allocBase
		default:
			panic("core: unknown context-switch policy")
		}
		before := table.PhasesAllocated()
		for q := 0; q < quantum && pos[cur] < len(threads[cur]); q++ {
			s := threads[cur][pos[cur]]
			id, _ := table.Classify(s.BBV, s.DDS)
			ids[cur][pos[cur]] = base + id
			pos[cur]++
		}
		if policy == SwitchClear {
			allocBase += table.PhasesAllocated() - before
		}
	}
	if policy == SwitchSaveRestore {
		offset := 0
		for i, table := range perThread {
			if table == nil {
				continue
			}
			for j := range ids[i] {
				ids[i][j] += offset
			}
			offset += table.PhasesAllocated()
		}
		return ids, offset
	}
	return ids, allocBase
}
