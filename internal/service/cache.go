package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmphase/internal/harness"
	"dsmphase/internal/rng"
)

// The result cache. A finished job's merged results are serialized as
// a one-shard artifact keyed by the grid name plus the plan's
// fingerprint (and, for tuning grids, the tuning axes) — everything
// that determines the report's bytes. A repeat submission of the same
// key is answered from disk without dispatching a single worker, which
// is what lets the service absorb many users re-running the same
// sweeps. The cache is LRU-bounded by total bytes: reads refresh a
// file's mtime, and writes evict the stalest entries until the budget
// holds.

// DefaultCacheBytes bounds the cache when Config.CacheBytes is 0.
const DefaultCacheBytes = 256 << 20

// Cache is the fingerprint-keyed disk store of merged job results.
type Cache struct {
	mu             sync.Mutex
	dir            string
	budget         int64
	evictions      atomic.Int64 // LRU budget evictions
	corruptDropped atomic.Int64 // unreadable/checksum-failed entries dropped by Get
}

// NewCache opens (creating) a cache directory with a byte budget.
func NewCache(dir string, budget int64) (*Cache, error) {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, budget: budget}, nil
}

// JobKey derives the cache key of a grid job: the grid name, the
// plan's fingerprint, and — because MergeShards validates them
// separately from the fingerprint — the tuning axes of tuning grids.
// Two submissions share a key exactly when their reports share bytes.
func JobKey(g harness.NamedGrid) string {
	key := g.Name + "-" + g.Spec.Plan().Fingerprint()
	if g.Tuning {
		h := rng.Hash64(uint64(len(g.Spec.Predictors())))
		for _, p := range g.Spec.Predictors() {
			for _, b := range []byte(p) {
				h = rng.Hash64(h ^ uint64(b))
			}
		}
		for _, c := range g.Spec.Controllers() {
			for _, b := range []byte(c.Name) {
				h = rng.Hash64(h ^ uint64(b))
			}
			h = rng.Hash64(h ^ uint64(c.TrialsPerConfig))
		}
		h = rng.Hash64(h ^ uint64(int64(g.Spec.PhaseBudget()*1e6)))
		key += fmt.Sprintf("-t%016x", h)
	}
	return key
}

func (c *Cache) path(key string) string {
	// Keys are [-a-z0-9] by construction (grid names + hex); guard
	// anyway so a hostile key cannot escape the directory.
	return filepath.Join(c.dir, strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)+".json")
}

// Get returns the cached artifact for key, refreshing its LRU stamp.
// An entry that exists on disk but no longer reads back — a failed
// content checksum above all — is removed (the next identical
// submission recomputes it) and reported as dropped, so the caller can
// publish the cache-evict event.
func (c *Cache) Get(key string) (a *harness.ShardArtifact, ok, dropped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.path(key)
	a, err := harness.ReadShardArtifactFile(p)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			_ = os.Remove(p)
			c.corruptDropped.Add(1)
			return nil, false, true
		}
		return nil, false, false
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	return a, true, false
}

// Put stores an artifact under key and evicts least-recently-used
// entries until the byte budget holds (the entry just written is never
// evicted, even if it alone exceeds the budget — serving an oversized
// result beats refusing it).
func (c *Cache) Put(key string, a *harness.ShardArtifact) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.path(key)
	tmp := p + ".tmp"
	if err := harness.WriteShardArtifactFile(tmp, a); err != nil {
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		return err
	}
	return c.evict(p)
}

// evict removes stalest entries until the budget holds, sparing keep.
func (c *Cache) evict(keep string) error {
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	var files []entry
	var total int64
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{filepath.Join(c.dir, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= c.budget {
			break
		}
		if f.path == keep {
			continue
		}
		if err := os.Remove(f.path); err == nil {
			total -= f.size
			c.evictions.Add(1)
		}
	}
	return nil
}

// Evictions counts LRU budget evictions since startup (/v1/stats).
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// CorruptDropped counts unreadable entries dropped by Get (/v1/stats).
func (c *Cache) CorruptDropped() int64 { return c.corruptDropped.Load() }

// Len returns the number of cached entries (tests and /v1/stats).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
