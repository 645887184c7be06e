package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
)

// The two JSON documents the benchmark exchanges: BENCHMARK.json, which
// declares the workloads and metrics, and the one-line result a run
// prints. Both are untrusted byte streams — a hand-edited manifest or a
// truncated result line — so both loaders reject malformed input with
// an error and never panic.

const (
	maxManifestBytes = 64 << 10
	maxEndToEnd      = 16
	maxPerLayer      = 128
	maxBound         = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// decodeStrict decodes exactly one JSON value into v, refusing unknown
// fields and trailing data.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// parseManifest decodes and validates BENCHMARK.json.
func parseManifest(data []byte) (*manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("manifest: %d bytes, limit %d", len(data), maxManifestBytes)
	}
	var m manifest
	if err := decodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &m, nil
}

func (m *manifest) validate() error {
	if len(m.Command) < 1 || len(m.Command) > 32 {
		return fmt.Errorf("command: %d strings, want 1 to 32", len(m.Command))
	}
	for _, c := range m.Command {
		if c == "" || len(c) > 200 || leavesRepo(c) {
			return fmt.Errorf("command: bad argument %q", c)
		}
	}
	if len(m.Paths) < 1 || len(m.Paths) > 16 {
		return fmt.Errorf("paths: %d entries, want 1 to 16", len(m.Paths))
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || leavesRepo(p) {
			return fmt.Errorf("paths: bad path %q", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds: %d, want 1 to 60", m.RunSeconds)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		return fmt.Errorf("workloads: %d, want 2 to 8", len(m.Workloads))
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > maxEndToEnd {
		return fmt.Errorf("end_to_end: %d metrics, want 1 to %d", len(m.EndToEnd), maxEndToEnd)
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > maxPerLayer {
		return fmt.Errorf("per_layer: %d metrics, want 1 to %d", len(m.PerLayer), maxPerLayer)
	}
	seen := map[string]bool{}
	useName := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: bad name %q", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := useName("workloads", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workloads: %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	for _, group := range []struct {
		kind    string
		metrics []metricDecl
		bounded bool
	}{{"end_to_end", m.EndToEnd, true}, {"per_layer", m.PerLayer, false}} {
		for _, d := range group.metrics {
			if err := useName(group.kind, d.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("%s: %s: bad unit %q", group.kind, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				return fmt.Errorf("%s: %s: better is %q, want higher or lower", group.kind, d.Name, d.Better)
			}
			switch {
			case group.bounded && d.Bound == nil:
				return fmt.Errorf("%s: %s: missing bound", group.kind, d.Name)
			case group.bounded && !(*d.Bound > 0 && *d.Bound <= maxBound):
				return fmt.Errorf("%s: %s: bound %g, want (0, %g]", group.kind, d.Name, *d.Bound, maxBound)
			case !group.bounded && d.Bound != nil:
				return fmt.Errorf("%s: %s: per-layer metrics carry no bound", group.kind, d.Name)
			}
		}
	}
	// Set-up time must be declared with the widest bound, so that work
	// moved out of the measured section into set-up still shows.
	setup, ok := m.metric(false, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		return errors.New(`end_to_end: needs "setup_s" in s, better lower`)
	}
	for _, d := range m.EndToEnd {
		if *d.Bound > *setup.Bound {
			return fmt.Errorf("end_to_end: %s bound %g exceeds setup_s bound %g", d.Name, *d.Bound, *setup.Bound)
		}
	}
	return nil
}

// leavesRepo reports whether a command argument or path is absolute or
// climbs out of the repository.
func leavesRepo(s string) bool {
	if strings.HasPrefix(s, "/") {
		return true
	}
	for _, part := range strings.Split(s, "/") {
		if part == ".." {
			return true
		}
	}
	return false
}

// metrics returns the declared metrics of one run mode: end-to-end for
// untraced runs, per-layer for traced ones.
func (m *manifest) metrics(traced bool) []metricDecl {
	if traced {
		return m.PerLayer
	}
	return m.EndToEnd
}

func (m *manifest) metric(traced bool, name string) (metricDecl, bool) {
	for _, d := range m.metrics(traced) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult attaches the declared units to measured values. A value
// BENCHMARK.json does not declare gets no unit, which parseResult
// rejects.
func newResult(m *manifest, traced bool, values map[string]float64, attempted, failed int) *result {
	r := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(values)),
	}
	for name, v := range values {
		d, _ := m.metric(traced, name)
		r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r
}

// parseResult decodes and validates a result line against the manifest.
func parseResult(data []byte, m *manifest, traced bool) (*result, error) {
	var raw struct {
		Correct   *bool           `json:"correct"`
		Attempted *int            `json:"attempted"`
		Failed    *int            `json:"failed"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	if err := decodeStrict(data, &raw); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if raw.Correct == nil || raw.Attempted == nil || raw.Failed == nil || raw.Metrics == nil {
		return nil, errors.New("result: needs correct, attempted, failed and metrics")
	}
	if err := noDuplicateKeys(raw.Metrics); err != nil {
		return nil, fmt.Errorf("result: metrics: %w", err)
	}
	r := &result{Correct: *raw.Correct, Attempted: *raw.Attempted, Failed: *raw.Failed}
	if err := decodeStrict(raw.Metrics, &r.Metrics); err != nil {
		return nil, fmt.Errorf("result: metrics: %w", err)
	}
	if err := r.validate(m, traced); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *result) validate(m *manifest, traced bool) error {
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("result: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	if r.Correct != (r.Failed == 0) {
		return fmt.Errorf("result: correct=%v with %d failed", r.Correct, r.Failed)
	}
	for name, v := range r.Metrics {
		d, ok := m.metric(traced, name)
		if !ok {
			return fmt.Errorf("result: undeclared metric %q", name)
		}
		if v.Unit != d.Unit {
			return fmt.Errorf("result: %s in %q, declared %q", name, v.Unit, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("result: %s is %v", name, v.Value)
		}
	}
	for _, d := range m.metrics(traced) {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("result: declared metric %q missing", d.Name)
		}
	}
	return nil
}

// noDuplicateKeys rejects a JSON object that names a key twice, which
// encoding/json would otherwise resolve silently to the last value.
func noDuplicateKeys(obj json.RawMessage) error {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return errors.New("want a JSON object")
	}
	seen := map[string]bool{}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := t.(string) // object keys are always strings
		if seen[key] {
			return fmt.Errorf("key %q appears twice", key)
		}
		seen[key] = true
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return err
		}
	}
	return nil
}
