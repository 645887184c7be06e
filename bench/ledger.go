package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// The traced run's span ledger. Spans are recorded by the benchmark
// around its own calls into each layer (the program itself carries no
// tracing), kept in memory, and written out only when the run ends.

// span is one timed call. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cell   int    `json:"cell"` // plan index, -1 when the span is not per cell
	// Tag names what the span worked on: a grid, a job ID or a format.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ledger collects spans. Service worker spans arrive from coordinator
// goroutines, hence the mutex.
type ledger struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

// begin opens a span and returns its ID. A nil ledger records nothing,
// which is how the untraced passes share code with the traced ones.
func (l *ledger) begin(parent int, name string, cell int, tag string) int {
	if l == nil {
		return 0
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now, Cell: cell, Tag: tag})
	return id
}

func (l *ledger) end(id int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// selfByName sums, per span name, the self time (duration minus the
// direct children's durations) of the spans under root, root included.
func (l *ledger) selfByName(root int) map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := map[int]bool{root: true}
	self := map[int]time.Duration{}
	// Children are always opened after their parents, so one forward
	// sweep finds the whole subtree.
	for _, s := range l.spans[root-1:] {
		if s.ID != root && !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		self[s.ID] += s.dur()
		if s.ID != root {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for id, d := range self {
		out[l.spans[id-1].Name] += d
	}
	return out
}

func (l *ledger) write(path string) error {
	l.mu.Lock()
	data, err := json.MarshalIndent(l.spans, "", "  ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counts.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
