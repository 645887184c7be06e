package service

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsmphase/internal/harness"
	"dsmphase/internal/workloads"
)

func testArtifact(tag string) *harness.ShardArtifact {
	return &harness.ShardArtifact{
		Format: harness.ShardFormat,
		Shard:  0,
		Of:     1,
		Grids:  []harness.ShardGrid{{Name: tag, Fingerprint: tag, Cells: 1}},
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("Get on empty cache hit")
	}
	if err := c.Put("k1", testArtifact("g1")); err != nil {
		t.Fatal(err)
	}
	a, ok, _ := c.Get("k1")
	if !ok {
		t.Fatal("Put then Get missed")
	}
	if a.Grids[0].Name != "g1" {
		t.Fatalf("got grid %q", a.Grids[0].Name)
	}
}

// TestCacheLRUEviction: with a budget of roughly two entries, writing
// a third evicts the least-recently-used one — and a Get refreshes an
// entry's recency, steering eviction to the untouched one.
func TestCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	probe, err := NewCache(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Put("probe", testArtifact("p")); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("probe entry: %v, %v", entries, err)
	}
	size := fileSize(t, entries[0])

	c, err := NewCache(t.TempDir(), 2*size+size/2) // room for two entries
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), testArtifact("g")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // distinct mtimes on coarse filesystems
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok, _ := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.Put("k2", testArtifact("g")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries after eviction, want 2", c.Len())
	}
	if _, ok, _ := c.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok, _ := c.Get(k); !ok {
			t.Fatalf("entry %s was evicted, want k1", k)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJobKeySeparatesTuningAxes: two tuning grids with identical plans
// but different tuning axes must not share a cache entry.
func TestJobKeySeparatesTuningAxes(t *testing.T) {
	gp := harness.GridParams{Size: workloads.SizeTest, Apps: []string{"lu"}, Seed: 1, Replicates: 1}
	a, err := harness.BuildGrid("tuning", gp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.BuildGrid("tuning", gp)
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(a) != JobKey(b) {
		t.Fatal("identical tuning grids got different keys")
	}
	plain, err := harness.BuildGrid("figure2", gp)
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(a) == JobKey(plain) {
		t.Fatal("tuning and plain grids share a key")
	}
}
