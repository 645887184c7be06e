package workloads

// The declarative workload DSL: a JSON text format (conventionally
// .wdl files) that describes a Program directly — phases of primitive
// blocks with placement, sharing degree, skew and per-instance drift —
// so new scenarios need a data file instead of a Go generator. The
// same front end ingests externally captured address traces (a "trace"
// stanza instead of "phases"); both compile onto the IR in ir.go and
// register through RegisterDynamic, which keys result caches and shard
// artifacts on the definition hash.
//
// Spec shape (all byte quantities accept decimal numbers or "0x..."
// strings):
//
//	{
//	  "name": "oscillate",
//	  "description": "what the scenario models",
//	  "pc_base": "0x7e000000",            // optional; blocks get pc_base + i*0x100
//	  "repeat": 8,                        // optional; cycles the whole phase sequence (A B A B …)
//	  "scale": {"test": 1, "small": 2, "full": 4},  // optional repeat multiplier per size
//	  "phases": [
//	    {"repeat": 16, "blocks": [
//	      {"kind": "stride", "count": 512, "wrap": 1024, "offset_step": 1,
//	       "int_ops": 2, "store": true,
//	       "region": {"home": -1, "base": "0x1000000", "elem_bytes": 8}},
//	      ...
//	    ]}
//	  ]
//	}
//
// or, for an ingested trace (records inline, or "file" relative to the
// spec file when loaded from disk):
//
//	{"name": "captured", "description": "...",
//	 "trace": {"records": [{"proc":0,"op":"load","pc":4096,"addr":16},...]}}
//
// Block kinds and their fields mirror the IR primitives: stride, share,
// random, tree, broadcast, reduction, stencil, restrict. Counts are
// per-thread except tree's walks (total, divided across threads);
// "per_proc": true divides a block's main count by the processor count
// at build time. Within a repeated phase, instance r applies the
// drift fields: offset += r*offset_step, count += r*count_step,
// elems += r*elems_step, salt += r*salt_step.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dsmphase/internal/isa"
	"dsmphase/internal/rng"
	"dsmphase/internal/trace"
)

// specPCBase is the default static-PC window for DSL workloads, above
// every built-in generator's window.
const specPCBase = 0x7E00_0000

// byteQty is a byte quantity or address that unmarshals from a JSON
// number or a "0x..." string and canonicalizes to a number.
type byteQty uint64

func (q *byteQty) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return fmt.Errorf("bad quantity %q: %w", s, err)
		}
		*q = byteQty(v)
		return nil
	}
	var v uint64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*q = byteQty(v)
	return nil
}

// rawRegion is the wire form of a Region.
type rawRegion struct {
	// Home is the owning node; -1 (the default in private contexts)
	// means the touching thread's own node.
	Home      *int    `json:"home,omitempty"`
	Base      byteQty `json:"base,omitempty"`
	ElemBytes byteQty `json:"elem_bytes,omitempty"`
	SlotBytes byteQty `json:"slot_bytes,omitempty"`
	SlotWrap  byteQty `json:"slot_wrap,omitempty"`
}

// region resolves the wire form against a default.
func (rr *rawRegion) region(def Region) Region {
	if rr == nil {
		return def
	}
	r := Region{Home: def.Home, ElemBytes: 8}
	if rr.Home != nil {
		r.Home = *rr.Home
	}
	if rr.Base != 0 {
		r.Base = uint64(rr.Base)
	}
	if rr.ElemBytes != 0 {
		r.ElemBytes = uint64(rr.ElemBytes)
	}
	r.SlotBytes = uint64(rr.SlotBytes)
	r.SlotWrap = uint64(rr.SlotWrap)
	return r
}

// rawBlock is the wire form of one IR block, a tagged union over the
// primitive kinds.
type rawBlock struct {
	Kind string  `json:"kind"`
	PC   byteQty `json:"pc,omitempty"` // explicit static PC; 0 = auto

	// Shared knobs.
	Count   int  `json:"count,omitempty"`
	IntOps  int  `json:"int_ops,omitempty"`
	FPOps   int  `json:"fp_ops,omitempty"`
	Store   bool `json:"store,omitempty"`
	Skew    int  `json:"skew,omitempty"`
	PerProc bool `json:"per_proc,omitempty"`

	// Drift fields, applied per repeat instance.
	CountStep  int     `json:"count_step,omitempty"`
	Offset     int     `json:"offset,omitempty"`
	OffsetStep int     `json:"offset_step,omitempty"`
	Salt       byteQty `json:"salt,omitempty"`
	SaltStep   byteQty `json:"salt_step,omitempty"`
	ElemsStep  int     `json:"elems_step,omitempty"`

	// stride
	Wrap int `json:"wrap,omitempty"`

	// share
	Degree int `json:"degree,omitempty"`

	// random
	Span       int  `json:"span,omitempty"`
	StoreEvery int  `json:"store_every,omitempty"`
	Spread     bool `json:"spread,omitempty"`

	// tree
	Walks     int     `json:"walks,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Fanout    int     `json:"fanout,omitempty"`
	Nodes     int     `json:"nodes,omitempty"`
	Chunk     int     `json:"chunk,omitempty"`
	NodeBytes byteQty `json:"node_bytes,omitempty"`
	Base      byteQty `json:"base,omitempty"`

	// broadcast
	Elems       int  `json:"elems,omitempty"`
	IncludeSelf bool `json:"include_self,omitempty"`

	// stencil / restrict / reduction
	Grid      int     `json:"grid,omitempty"`
	Colour    int     `json:"colour,omitempty"`
	Level     int     `json:"level,omitempty"`
	ColStep   int     `json:"col_step,omitempty"`
	RowChunk  int     `json:"row_chunk,omitempty"`
	ElemBytes byteQty `json:"elem_bytes,omitempty"`

	Region *rawRegion `json:"region,omitempty"`
	Accum  *rawRegion `json:"accum,omitempty"`

	pc uint32 // resolved static PC
}

// rawPhase is the wire form of one phase definition.
type rawPhase struct {
	Repeat    int        `json:"repeat,omitempty"` // 0 = 1
	NoBarrier bool       `json:"no_barrier,omitempty"`
	Blocks    []rawBlock `json:"blocks"`
}

// rawTrace is the trace stanza: inline records, or a JSONL file path
// resolved relative to the spec file.
type rawTrace struct {
	Records []trace.Access `json:"records,omitempty"`
	File    string         `json:"file,omitempty"`
}

// rawSpec is the top-level wire form.
type rawSpec struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	PCBase      byteQty `json:"pc_base,omitempty"`
	// Repeat cycles the whole phase sequence (0 = 1): with phases A, B
	// it yields A B A B …, where per-phase repeat would yield AA… BB….
	// The scale multiplier applies here when present.
	Repeat int            `json:"repeat,omitempty"`
	Scale  map[string]int `json:"scale,omitempty"`
	Phases []rawPhase     `json:"phases,omitempty"`
	Trace  *rawTrace      `json:"trace,omitempty"`
}

// SpecWorkload is a Workload defined at runtime by a DSL spec or an
// ingested trace. It carries its canonical source (for shipping to
// workers) and definition hash (for fingerprints and caches).
type SpecWorkload struct {
	name     string
	desc     string
	inputSet func(sz Size) string
	src      []byte
	hash     uint64
	build    func(n int, sz Size) *Program
}

// Name implements Workload.
func (s *SpecWorkload) Name() string { return s.name }

// Description implements Workload.
func (s *SpecWorkload) Description() string { return s.desc }

// InputSet implements Workload.
func (s *SpecWorkload) InputSet(sz Size) string { return s.inputSet(sz) }

// Threads implements Workload.
func (s *SpecWorkload) Threads(n int, sz Size, seed uint64) []isa.Thread {
	return s.build(n, sz).Threads(n, seed)
}

// Hash is the definition hash: a deterministic digest of the canonical
// source. Equal sources hash equal on every machine.
func (s *SpecWorkload) Hash() uint64 { return s.hash }

// Source is the canonical spec text (trace files inlined) — the bytes
// a coordinator ships to its workers.
func (s *SpecWorkload) Source() []byte { return s.src }

// Register adds the workload to the registry under its definition
// hash. Idempotent for identical definitions.
func (s *SpecWorkload) Register() error { return RegisterDynamic(s, s.hash) }

// ParseSpec parses and validates a DSL spec from memory. Trace stanzas
// must carry inline records; file references need LoadSpecFile (only
// it knows what "relative" means).
func ParseSpec(src []byte) (*SpecWorkload, error) {
	return parseSpec(src, "")
}

// LoadSpecFile reads and parses a spec file; trace file references are
// resolved relative to the spec's directory and inlined into the
// canonical source, so the result is self-contained.
func LoadSpecFile(path string) (*SpecWorkload, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	sw, err := parseSpec(src, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("workloads: spec %s: %w", path, err)
	}
	return sw, nil
}

func parseSpec(src []byte, dir string) (*SpecWorkload, error) {
	var spec rawSpec
	if err := json.Unmarshal(src, &spec); err != nil {
		return nil, fmt.Errorf("workloads: parsing spec: %w", err)
	}
	if err := validName(spec.Name); err != nil {
		return nil, err
	}
	if spec.Repeat < 0 {
		return nil, fmt.Errorf("workloads: spec %q: negative repeat", spec.Name)
	}
	if spec.Description == "" {
		return nil, fmt.Errorf("workloads: spec %q: description is required", spec.Name)
	}
	switch {
	case spec.Trace != nil && len(spec.Phases) > 0:
		return nil, fmt.Errorf("workloads: spec %q: phases and trace are mutually exclusive", spec.Name)
	case spec.Trace != nil:
		if spec.Trace.File != "" {
			if len(spec.Trace.Records) > 0 {
				return nil, fmt.Errorf("workloads: spec %q: trace records and file are mutually exclusive", spec.Name)
			}
			if dir == "" {
				return nil, fmt.Errorf("workloads: spec %q: trace file references need LoadSpecFile", spec.Name)
			}
			f, err := os.Open(filepath.Join(dir, spec.Trace.File))
			if err != nil {
				return nil, fmt.Errorf("workloads: spec %q: %w", spec.Name, err)
			}
			recs, err := trace.ReadAccessJSONL(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("workloads: spec %q: %w", spec.Name, err)
			}
			spec.Trace = &rawTrace{Records: recs}
		}
		return traceWorkload(spec.Name, spec.Description, spec.Trace.Records)
	case len(spec.Phases) == 0:
		return nil, fmt.Errorf("workloads: spec %q: needs phases or a trace", spec.Name)
	}
	return phasedWorkload(&spec, src)
}

// validName enforces registry-safe workload names.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("workloads: spec name is required")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z':
		case i > 0 && (c == '-' || c == '_' || (c >= '0' && c <= '9')):
		default:
			return fmt.Errorf("workloads: spec name %q: want lowercase [a-z][a-z0-9_-]*", name)
		}
	}
	return nil
}

// canonHash canonicalizes a spec source (re-marshal of the generic
// parse, sorted keys, no whitespace, JSON-zero scalar fields stripped)
// and hashes it. Formatting changes and writing a default explicitly
// ("repeat": 0, "drift": false, "scale_name": "") don't move the hash;
// any value change does. Empty objects and arrays are NOT stripped —
// an explicit empty "region" selects region defaults, which differs
// from no region at all — and neither is "home", whose wire type is a
// pointer: absent means owner-thread homing while an explicit 0 homes
// at node 0. Numbers are normalized by canonNumber. src has already
// been unmarshaled by parseSpec, so it holds exactly one JSON value.
func canonHash(src []byte) ([]byte, uint64, error) {
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, 0, fmt.Errorf("workloads: canonicalizing spec: %w", err)
	}
	stripped, err := stripZeroDefaults(generic)
	if err != nil {
		return nil, 0, fmt.Errorf("workloads: canonicalizing spec: %w", err)
	}
	canon, err := json.Marshal(stripped)
	if err != nil {
		return nil, 0, fmt.Errorf("workloads: canonicalizing spec: %w", err)
	}
	return canon, canonDigest(canon), nil
}

// canonDigest is the definition hash of a canonical source.
func canonDigest(canon []byte) uint64 {
	h := rng.Hash64(uint64(len(canon)))
	for _, b := range canon {
		h = rng.Hash64(h ^ uint64(b))
	}
	return h
}

// stripZeroDefaults removes object fields whose value is a JSON zero
// scalar (0, false, "", null) from a generic JSON tree, recursively,
// normalizes its numbers with canonNumber and rejects an object with
// two keys that differ only in case. Pointer-typed fields that
// distinguish absent from zero ("home") are kept, as are empty
// objects/arrays (see canonHash).
func stripZeroDefaults(v any) (any, error) {
	switch t := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(t))
		folded := make(map[string]bool, len(t))
		for k, e := range t {
			// Unmarshaling matches keys to fields regardless of case and
			// keeps the last in input order, which sorting the keys can
			// change: two keys differing only in case are ambiguous.
			f := strings.ToLower(strings.ToUpper(k))
			if folded[f] {
				return nil, fmt.Errorf("keys differing only in case (%q)", f)
			}
			folded[f] = true
			e, err := stripZeroDefaults(e)
			if err != nil {
				return nil, err
			}
			// "home" is pointer-typed: strip only null (absent), never
			// an explicit 0, which homes at node 0 rather than the
			// owner thread.
			if isZeroScalar(e) && (k != "home" || e == nil) {
				continue
			}
			out[k] = e
		}
		return out, nil
	case []any:
		for i, e := range t {
			e, err := stripZeroDefaults(e)
			if err != nil {
				return nil, err
			}
			t[i] = e
		}
		return t, nil
	case json.Number:
		return canonNumber(t)
	default:
		return v, nil
	}
}

// canonNumber normalizes a decoded number. An integer literal of
// magnitude 2^53 or more stays its exact literal, which a float64
// would round. Every other number becomes its float64, which marshals
// to the text the canonical source has always had (-0 included, which
// is then stripped as a zero).
func canonNumber(n json.Number) (any, error) {
	digits := strings.TrimPrefix(string(n), "-")
	if !strings.ContainsAny(digits, ".eE") && (len(digits) > 16 || len(digits) == 16 && digits >= "9007199254740992") {
		return n, nil
	}
	f, err := n.Float64()
	if err != nil {
		return nil, fmt.Errorf("number %s: %w", n, err)
	}
	return f, nil
}

func isZeroScalar(v any) bool {
	switch t := v.(type) {
	case nil:
		return true
	case bool:
		return !t
	case float64:
		return t == 0
	case string:
		return t == ""
	}
	return false
}

// scaleFor resolves the per-size phase-repeat multiplier.
func scaleFor(scale map[string]int, sz Size) int {
	if s, ok := scale[sz.String()]; ok && s > 0 {
		return s
	}
	return 1
}

// phasedWorkload compiles a phases-style spec.
func phasedWorkload(spec *rawSpec, src []byte) (*SpecWorkload, error) {
	pcBase := uint32(specPCBase)
	if spec.PCBase != 0 {
		pcBase = uint32(spec.PCBase)
	}
	// Assign static PCs per block definition: repeat instances of a
	// definition share its PC, exactly as iterations share code.
	seq := 0
	blockDefs := 0
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		if len(ph.Blocks) == 0 {
			return nil, fmt.Errorf("workloads: spec %q: phase %d has no blocks", spec.Name, pi)
		}
		if ph.Repeat < 0 {
			return nil, fmt.Errorf("workloads: spec %q: phase %d: negative repeat", spec.Name, pi)
		}
		for bi := range ph.Blocks {
			rb := &ph.Blocks[bi]
			rb.pc = pcBase + uint32(seq)*0x100
			if rb.PC != 0 {
				rb.pc = uint32(rb.PC)
			}
			seq++
			if err := rb.validate(); err != nil {
				return nil, fmt.Errorf("workloads: spec %q: phase %d block %d: %w", spec.Name, pi, bi, err)
			}
			blockDefs++
		}
	}
	canon, hash, err := canonHash(src)
	if err != nil {
		return nil, err
	}
	specCopy := *spec
	sw := &SpecWorkload{
		name: spec.Name,
		desc: spec.Description,
		inputSet: func(sz Size) string {
			reps := 0
			for _, ph := range specCopy.Phases {
				r := ph.Repeat
				if r < 1 {
					r = 1
				}
				reps += r
			}
			outer := specCopy.Repeat
			if outer < 1 {
				outer = 1
			}
			reps *= outer * scaleFor(specCopy.Scale, sz)
			return fmt.Sprintf("spec: %d block defs, %d phase executions", blockDefs, reps)
		},
		src:  canon,
		hash: hash,
		build: func(n int, sz Size) *Program {
			prog := &Program{BarrierPC: pcBase + 0xFF00}
			outer := specCopy.Repeat
			if outer < 1 {
				outer = 1
			}
			outer *= scaleFor(specCopy.Scale, sz)
			for o := 0; o < outer; o++ {
				for pi := range specCopy.Phases {
					ph := &specCopy.Phases[pi]
					rep := ph.Repeat
					if rep < 1 {
						rep = 1
					}
					for r := 0; r < rep; r++ {
						// Drift continues across outer cycles: the block's
						// instance index counts its executions overall.
						inst := o*rep + r
						var blocks []Block
						for bi := range ph.Blocks {
							if b := ph.Blocks[bi].instantiate(inst, n); b != nil {
								blocks = append(blocks, b)
							}
						}
						prog.Phases = append(prog.Phases, Phase{Blocks: blocks, NoBarrier: ph.NoBarrier})
					}
				}
			}
			return prog
		},
	}
	return sw, nil
}

// validate checks a block definition's static constraints.
func (rb *rawBlock) validate() error {
	switch rb.Kind {
	case "stride":
		if rb.Count <= 0 && rb.CountStep <= 0 {
			return fmt.Errorf("stride needs a positive count")
		}
	case "share":
		if rb.Count <= 0 {
			return fmt.Errorf("share needs a positive count")
		}
		if rb.Degree < 2 {
			return fmt.Errorf("share needs degree >= 2")
		}
	case "random":
		if rb.Count <= 0 && rb.CountStep <= 0 {
			return fmt.Errorf("random needs a positive count")
		}
		if rb.Span <= 0 {
			return fmt.Errorf("random needs a positive span")
		}
	case "tree":
		if rb.Walks <= 0 || rb.Depth <= 0 || rb.Nodes <= 0 {
			return fmt.Errorf("tree needs positive walks, depth and nodes")
		}
	case "broadcast":
		if rb.Elems <= 0 && rb.ElemsStep <= 0 {
			return fmt.Errorf("broadcast needs positive elems")
		}
	case "reduction":
		if rb.Elems <= 0 {
			return fmt.Errorf("reduction needs positive elems")
		}
	case "stencil":
		if rb.Grid < 4 {
			return fmt.Errorf("stencil needs grid >= 4")
		}
	case "restrict":
		if rb.Grid < 4 {
			return fmt.Errorf("restrict needs grid >= 4")
		}
	default:
		return fmt.Errorf("unknown block kind %q (want stride, share, random, tree, broadcast, reduction, stencil or restrict)", rb.Kind)
	}
	return nil
}

// perProc scales a count down with the processor count when requested.
func (rb *rawBlock) perProcCount(v, n int) int {
	if !rb.PerProc || n < 2 {
		return v
	}
	if v = v / n; v < 1 {
		return 1
	}
	return v
}

// drift applies the per-instance drift to a base count, clamping at 0.
func driftCount(base, step, r int) int {
	v := base + step*r
	if v < 0 {
		return 0
	}
	return v
}

// instantiate builds the IR block for repeat instance r at processor
// count n; nil means the instance drifted to zero work.
func (rb *rawBlock) instantiate(r, n int) Block {
	salt := uint64(rb.Salt) + uint64(rb.SaltStep)*uint64(r)
	privRegion := Region{Home: OwnerThread, Base: 1 << 24, ElemBytes: 8}
	switch rb.Kind {
	case "stride":
		count := rb.perProcCount(driftCount(rb.Count, rb.CountStep, r), n)
		if count == 0 {
			return nil
		}
		return &Stride{
			PC: rb.pc, Count: count, Wrap: rb.Wrap, Offset: rb.Offset + rb.OffsetStep*r,
			IntOps: rb.IntOps, FPOps: rb.FPOps, Store: rb.Store, Skew: rb.Skew,
			Region: rb.Region.region(privRegion),
		}
	case "share":
		return &Share{
			PC: rb.pc, Count: rb.perProcCount(rb.Count, n), Degree: rb.Degree, IntOps: rb.IntOps,
			Slots: rb.Region.region(Region{Home: 0, SlotBytes: 8}),
		}
	case "random":
		count := rb.perProcCount(driftCount(rb.Count, rb.CountStep, r), n)
		if count == 0 {
			return nil
		}
		return &Random{
			PC: rb.pc, Count: count, Span: rb.Span, StoreEvery: rb.StoreEvery,
			IntOps: rb.IntOps, FPOps: rb.FPOps, Spread: rb.Spread, Skew: rb.Skew,
			Salt: salt, Region: rb.Region.region(privRegion),
		}
	case "tree":
		nodeBytes := uint64(rb.NodeBytes)
		if nodeBytes == 0 {
			nodeBytes = 64
		}
		base := uint64(rb.Base)
		if base == 0 {
			base = 1 << 26
		}
		return &TreeChase{
			PC: rb.pc, Walks: rb.Walks, Depth: rb.Depth, Fanout: rb.Fanout, Nodes: rb.Nodes,
			IntOps: rb.IntOps, FPOps: rb.FPOps, Store: rb.Store, Skew: rb.Skew,
			Chunk: rb.Chunk, Salt: salt, NodeBytes: nodeBytes, Base: base,
		}
	case "broadcast":
		elems := rb.perProcCount(driftCount(rb.Elems, rb.ElemsStep, r), n)
		if elems == 0 {
			return nil
		}
		return &Broadcast{
			PC: rb.pc, Elems: elems, IntOps: rb.IntOps, FPOps: rb.FPOps,
			IncludeSelf: rb.IncludeSelf,
			Region:      rb.Region.region(Region{Home: OwnerThread, Base: 1 << 26, ElemBytes: 8}),
		}
	case "reduction":
		base := uint64(rb.Base)
		if base == 0 {
			base = 1 << 28
		}
		elemBytes := uint64(rb.ElemBytes)
		if elemBytes == 0 {
			elemBytes = 8
		}
		return &Reduction{
			PC: rb.pc, Elems: rb.Elems, FPOps: rb.FPOps, Base: base, ElemBytes: elemBytes,
			Accum: rb.Accum.region(Region{Home: 0, Base: 1 << 30}),
		}
	case "stencil":
		return &Stencil{
			PC: rb.pc, Grid: rb.Grid, Colour: rb.Colour, Level: rb.Level,
			ColStep: defInt(rb.ColStep, 4), FPOps: rb.FPOps, RowChunk: defInt(rb.RowChunk, 8),
			LevelShift: 27, ElemBytes: defUint(uint64(rb.ElemBytes), 8),
		}
	case "restrict":
		return &Restrict{
			PC: rb.pc, Grid: rb.Grid, Level: rb.Level, ColStep: defInt(rb.ColStep, 4),
			FPOps: rb.FPOps, LevelShift: 27, ElemBytes: defUint(uint64(rb.ElemBytes), 8),
		}
	}
	return nil
}

func defInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func defUint(v, def uint64) uint64 {
	if v == 0 {
		return def
	}
	return v
}
