package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"dsmphase/internal/harness"
)

// The corruption helpers. Each takes a path already on disk and
// damages it in place, modeling a specific real-world failure.
// CorruptArtifactValue is exported so a test can aim it at a target
// the injector never sees: the disk result cache.

// CorruptArtifactValue flips one content value of a shard-artifact
// JSON file — the first cell's wall_ns, falling back to a grid's cell
// count — WITHOUT restamping the checksum field. Format, shard
// coordinates and fingerprints all remain valid, so the damage is
// invisible to structural validation; only the content checksum can
// reject it. This is also the «corrupt disk-cache entry» fault:
// aimed at a cache file, the next Get must evict and recompute.
func CorruptArtifactValue(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("faults: corrupting %s: %w", path, err)
	}
	if !bumpFirstNumber(m) {
		return fmt.Errorf("faults: corrupting %s: no mutable value found", path)
	}
	out, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// bumpFirstNumber adds 1 to the first wall_ns it finds under grids →
// results, or to the first grid's cells count when the shard holds no
// results.
func bumpFirstNumber(m map[string]any) bool {
	grids, _ := m["grids"].([]any)
	for _, gv := range grids {
		g, _ := gv.(map[string]any)
		if g == nil {
			continue
		}
		results, _ := g["results"].([]any)
		for _, rv := range results {
			r, _ := rv.(map[string]any)
			if r == nil {
				continue
			}
			if w, ok := r["wall_ns"].(float64); ok {
				r["wall_ns"] = w + 1
				return true
			}
		}
	}
	for _, gv := range grids {
		g, _ := gv.(map[string]any)
		if g == nil {
			continue
		}
		if n, ok := g["cells"].(float64); ok {
			g["cells"] = n + 1
			return true
		}
	}
	return false
}

// truncateFile cuts a file to half its size — a torn write.
func truncateFile(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, fi.Size()/2)
}

// tearStream truncates a JSONL cell stream midway through its final
// line: the last durable cell is lost AND the tail is unparseable —
// exactly what a crash mid-append leaves behind. A stream without a
// complete line is left alone.
func tearStream(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	trimmed := bytes.TrimRight(data, "\n")
	last := bytes.LastIndexByte(trimmed, '\n') // start of final line - 1
	lineStart := last + 1
	cut := lineStart + (len(trimmed)-lineStart)/2
	if cut <= lineStart {
		return nil // nothing meaningful to tear
	}
	return os.Truncate(path, int64(cut))
}

// rewriteFingerprint replaces every grid fingerprint of an artifact
// and restamps the checksum, so the file is internally consistent but
// describes a plan the coordinator never asked for. Caught by the
// dispatcher's fingerprint validation, not the checksum.
func rewriteFingerprint(path string) error {
	a, err := harness.ReadShardArtifactFile(path)
	if err != nil {
		return err
	}
	for i := range a.Grids {
		a.Grids[i].Fingerprint = scrambleHex(a.Grids[i].Fingerprint)
	}
	return harness.WriteShardArtifactFile(path, a)
}

// scrambleHex deterministically maps a fingerprint to a different one.
func scrambleHex(s string) string {
	const alt = "deadbeefdeadbeef"
	if s != alt {
		return alt
	}
	return strings.Repeat("0", len(s))
}
