// Package coherence implements the DSM's coherence backends behind the
// Protocol interface. The default DirectoryProtocol is line-granular
// directory-based MSI: each memory line has a home node whose directory
// tracks the line's global state (uncached / shared / modified), its
// sharer set and its owner, and full load/store transactions execute
// against per-processor two-level caches. The IVY backend is
// page-granular software DSM in the style of Li & Hudak's IVY:
// read-only/read-write page copies, faults resolved by each page's
// manager node, and whole-page transfers. Both charge network,
// directory/manager and SDRAM latency through the models in
// internal/{network,memory}.
package coherence

// LineState is the directory-side state of a memory line.
type LineState uint8

const (
	// Uncached: no cache holds the line.
	Uncached LineState = iota
	// SharedState: one or more caches hold it read-only.
	SharedState
	// ModifiedState: exactly one cache owns it dirty.
	ModifiedState
)

// String returns a short name for the state.
func (s LineState) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedState:
		return "S"
	case ModifiedState:
		return "M"
	default:
		return "?"
	}
}

// Entry is one directory row. Sharers is a bitmask over processors
// (systems up to 64 nodes); Owner is meaningful only in ModifiedState.
type Entry struct {
	Sharers uint64
	Owner   int8
	State   LineState
}

// Directory tracks the lines homed at one node. Lines never referenced
// have no entry (implicitly Uncached).
type Directory struct {
	lines table[Entry]
}

// NewDirectoryTable returns an empty directory.
func NewDirectoryTable() *Directory { return &Directory{} }

// Lookup returns the entry for a line (zero Entry if absent).
func (d *Directory) Lookup(line uint64) Entry {
	e, _ := d.lines.get(line)
	return e
}

// setEntry stores or clears an entry.
func (d *Directory) setEntry(line uint64, e Entry) {
	if e.State == Uncached {
		d.lines.del(line)
		return
	}
	d.lines.put(line, e)
}

// AddSharer transitions the line to SharedState including proc.
func (d *Directory) AddSharer(line uint64, proc int) {
	e := d.lines.slot(line)
	e.Sharers |= 1 << uint(proc)
	e.State = SharedState
	e.Owner = -1
}

// SetOwner transitions the line to ModifiedState owned by proc.
func (d *Directory) SetOwner(line uint64, proc int) {
	d.lines.put(line, Entry{Sharers: 1 << uint(proc), Owner: int8(proc), State: ModifiedState})
}

// RemoveSharer drops proc from the sharer set (a replacement hint). If
// the set empties, the line becomes Uncached.
func (d *Directory) RemoveSharer(line uint64, proc int) {
	i := d.lines.find(line)
	if i < 0 {
		return
	}
	e := &d.lines.vals[i]
	e.Sharers &^= 1 << uint(proc)
	if e.Sharers == 0 {
		d.lines.remove(i)
		return
	}
	if e.State == ModifiedState && e.Owner == int8(proc) {
		// Owner evicted (writeback): remaining state is shared of others
		// (cannot normally happen in MSI — owner is sole sharer — but be
		// defensive).
		e.State = SharedState
		e.Owner = -1
	}
}

// Clear removes the line entirely (after a writeback of a modified line).
func (d *Directory) Clear(line uint64) { d.lines.del(line) }

// Len returns the number of tracked lines.
func (d *Directory) Len() int { return d.lines.len() }

// ForEach visits every tracked line (in table order).
func (d *Directory) ForEach(fn func(line uint64, e Entry)) { d.lines.each(fn) }
