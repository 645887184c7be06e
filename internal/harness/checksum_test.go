package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// checksumFixture builds a small real artifact (one shard of the shard
// test grid) for the checksum tests.
func checksumFixture(t *testing.T) *ShardArtifact {
	t.Helper()
	s := shardSpec()
	results := runGrid(t, NamedGrid{Name: "grid", Spec: s}, 0, 2, Options{Parallel: 2})
	grid, err := NewShardGrid("grid", s, results, false, false)
	if err != nil {
		t.Fatal(err)
	}
	return &ShardArtifact{Format: ShardFormat, Shard: 0, Of: 2, Grids: []ShardGrid{grid}}
}

// TestArtifactChecksumRoundTrip: writers stamp a checksum, readers
// verify it, and the value is a pure function of the content.
func TestArtifactChecksumRoundTrip(t *testing.T) {
	a := checksumFixture(t)
	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	if a.Checksum == "" || len(a.Checksum) != 16 {
		t.Fatalf("written artifact carries checksum %q, want 16 hex digits", a.Checksum)
	}
	back, err := ReadShardArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Checksum != a.Checksum {
		t.Fatalf("checksum changed across round trip: %s vs %s", back.Checksum, a.Checksum)
	}
	again, err := ChecksumArtifact(back)
	if err != nil {
		t.Fatal(err)
	}
	if again != a.Checksum {
		t.Fatalf("recomputed checksum %s, want %s", again, a.Checksum)
	}
}

// TestArtifactChecksumDetectsCorruption: mutating a field no structural
// validation looks at (a cell's wall_ns) must trip the checksum — that
// is exactly the corruption class only the checksum can catch.
func TestArtifactChecksumDetectsCorruption(t *testing.T) {
	a := checksumFixture(t)
	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	cell := m["grids"].([]any)[0].(map[string]any)["results"].([]any)[0].(map[string]any)
	cell["wall_ns"] = cell["wall_ns"].(float64) + 1
	corrupted, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardArtifact(bytes.NewReader(corrupted)); !errors.Is(err, ErrArtifactChecksum) {
		t.Fatalf("corrupted artifact read error = %v, want ErrArtifactChecksum", err)
	}
}

// TestArtifactChecksumOptional: artifacts written before the checksum
// existed (no checksum field) still read — no format-version bump.
func TestArtifactChecksumOptional(t *testing.T) {
	a := checksumFixture(t)
	var buf bytes.Buffer
	if err := WriteShardArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(buf.String(), "\"checksum\": \""+a.Checksum+"\",\n", "", 1)
	if legacy == buf.String() {
		t.Fatal("fixture did not contain the checksum line to strip")
	}
	back, err := ReadShardArtifact(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy (checksum-free) artifact failed to read: %v", err)
	}
	if back.Checksum != "" {
		t.Fatalf("legacy artifact grew checksum %q", back.Checksum)
	}
}
