package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"dsmphase/internal/workloads"
)

// FuzzJobRequest feeds arbitrary POST /v1/jobs bodies through what
// Submit does before it builds a plan: JSON decode, normalize, compile
// (shipped-workload registration and the request bounds included).
// The oracle: an error, never a panic, and an accepted request
// compiles to the same JobKey twice. The shipped-workload seed uses
// the example specs under their own names; registration is global and
// idempotent, so reseeding them never conflicts. Another seed names one
// app past the apps cap, with repeats.
func FuzzJobRequest(f *testing.F) {
	shipped := JobRequest{Grid: "figure2", Size: "test", Apps: []string{"oscillate", "pingpong"}, Interval: 16_000}
	for _, path := range []string{
		filepath.Join("..", "..", "examples", "adversarial_phases", "oscillate.wdl"),
		filepath.Join("..", "..", "examples", "trace_ingest", "pingpong.wdl"),
	} {
		sw, err := workloads.LoadSpecFile(path)
		if err != nil {
			f.Fatal(err)
		}
		shipped.Workloads = append(shipped.Workloads, string(sw.Source()))
	}
	// One name past the apps cap, each distinct name followed by a repeat.
	manyApps := testRequest()
	for i := 0; i < maxApps; i++ {
		manyApps.Apps = append(manyApps.Apps, fmt.Sprintf("app%d", i), "lu")
	}
	for _, req := range []JobRequest{testRequest(), chaosRequest("tuning"), shipped, manyApps} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		req.normalize()
		g, err := req.compile()
		if err != nil {
			return
		}
		again, err := req.compile()
		if err != nil {
			t.Fatalf("accepted request failed to compile again: %v", err)
		}
		if a, b := JobKey(g), JobKey(again); a != b {
			t.Fatalf("one request, two job keys: %s then %s", a, b)
		}
	})
}
