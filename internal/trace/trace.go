// Package trace serializes recorded interval signatures so experiments
// can be split into a simulate-once recording step and any number of
// offline analysis steps (threshold sweeps, predictor studies, tuning
// replays) without re-running the machine.
//
// Two formats are provided: JSONL (full fidelity — BBV, WSS, DDS —
// round-trips exactly) and CSV (a lossy, write-only per-interval summary
// for spreadsheets and plotting tools; nothing reads it back).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
)

// jsonRecord is the JSONL wire form of an interval signature. Traces
// written before the machine stopped classifying also carry a
// "phase_id" key (always -1 from the binaries); readers accept and
// discard it.
type jsonRecord struct {
	Proc         int       `json:"proc"`
	Index        int       `json:"index"`
	BBV          []float64 `json:"bbv"`
	WSS          []uint64  `json:"wss"`
	DDS          float64   `json:"dds"`
	RawDDS       float64   `json:"raw_dds"`
	Instructions uint64    `json:"instructions"`
	Cycles       uint64    `json:"cycles"`
	Local        uint64    `json:"local_accesses"`
	Remote       uint64    `json:"remote_accesses"`
}

// WriteJSONL writes one JSON object per interval, the bytes
// encoding/json writes for jsonRecord. A NaN or infinite BBV entry or
// DDS has no JSON form and fails the interval.
func WriteJSONL(w io.Writer, recs []core.IntervalSignature) error {
	return writeJSONL(w, recs, appendInterval)
}

func appendInterval(b []byte, r *core.IntervalSignature) ([]byte, error) {
	b = append(b, `{"proc":`...)
	b = strconv.AppendInt(b, int64(r.Proc), 10)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	b = append(b, `,"bbv":`...)
	var err error
	if r.BBV == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, f := range r.BBV {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloat(b, f); err != nil {
				return b, fmt.Errorf("trace: encoding interval %d/%d: %w", r.Proc, r.Index, err)
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"wss":[`...)
	for i, word := range r.WSS {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, word, 10)
	}
	b = append(b, `],"dds":`...)
	if b, err = appendFloat(b, r.DDS); err == nil {
		b = append(b, `,"raw_dds":`...)
		b, err = appendFloat(b, r.RawDDS)
	}
	if err != nil {
		return b, fmt.Errorf("trace: encoding interval %d/%d: %w", r.Proc, r.Index, err)
	}
	b = append(b, `,"instructions":`...)
	b = strconv.AppendUint(b, r.Instructions, 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendUint(b, r.Cycles, 10)
	b = append(b, `,"local_accesses":`...)
	b = strconv.AppendUint(b, r.LocalAccesses, 10)
	b = append(b, `,"remote_accesses":`...)
	b = strconv.AppendUint(b, r.RemoteAccesses, 10)
	return append(b, "}\n"...), nil
}

// ReadJSONL reads a JSONL stream written by WriteJSONL, or any JSONL
// stream of jsonRecord objects encoding/json decodes. It rejects a
// record that SplitByProc or classification could not take: a negative
// proc or index, a proc no simulated system has (SplitByProc allocates
// one slot per processor up to the largest), an index that is not its
// processor's next (0, 1, 2, ...), or a BBV whose length differs from
// the first record's.
func ReadJSONL(r io.Reader) ([]core.IntervalSignature, error) {
	var next [coherence.MaxProcs]int
	bbvLen := 0
	var scratch intervalScratch
	return readJSONL(r, "interval", scratch.parse, func(i int, jr *jsonRecord) (core.IntervalSignature, error) {
		var sig core.IntervalSignature
		if len(jr.WSS) != core.WSSWords {
			return sig, fmt.Errorf("trace: interval %d has %d WSS words, want %d",
				i, len(jr.WSS), core.WSSWords)
		}
		if jr.Proc < 0 || jr.Index < 0 {
			return sig, fmt.Errorf("trace: interval %d has proc %d, index %d; both must be non-negative",
				i, jr.Proc, jr.Index)
		}
		if jr.Proc >= coherence.MaxProcs {
			return sig, fmt.Errorf("trace: interval %d has proc %d; systems have at most %d processors",
				i, jr.Proc, coherence.MaxProcs)
		}
		// SplitByProc keeps each processor's records in stream order,
		// which is interval order only if every index comes next.
		if jr.Index != next[jr.Proc] {
			return sig, fmt.Errorf("trace: interval %d (proc %d) has index %d, want %d",
				i, jr.Proc, jr.Index, next[jr.Proc])
		}
		next[jr.Proc]++
		// Classification takes Manhattan distances between any two
		// intervals of a processor, which needs one BBV length throughout.
		if i == 0 {
			bbvLen = len(jr.BBV)
		} else if len(jr.BBV) != bbvLen {
			return sig, fmt.Errorf("trace: interval %d (proc %d, index %d) has %d BBV entries, want %d as in interval 0",
				i, jr.Proc, jr.Index, len(jr.BBV), bbvLen)
		}
		sig = core.IntervalSignature{
			Proc:           jr.Proc,
			Index:          jr.Index,
			BBV:            jr.BBV,
			DDS:            jr.DDS,
			RawDDS:         jr.RawDDS,
			Instructions:   jr.Instructions,
			Cycles:         jr.Cycles,
			LocalAccesses:  jr.Local,
			RemoteAccesses: jr.Remote,
		}
		copy(sig.WSS[:], jr.WSS)
		return sig, nil
	})
}

// intervalScratch holds the vectors of the line being parsed, so a
// record allocates only its exact-length BBV.
type intervalScratch struct {
	bbv []float64
	wss []uint64
}

// parse is the fast path for one line: keys are jsonRecord's tags, each
// at most once, in any order, plus an older trace's integer "phase_id",
// which is parsed and discarded; bbv and wss are number arrays (a null
// bbv, which encoding/json decodes as a nil slice, is left to it).
// jr.WSS aliases the scratch, which the next line reuses.
func (s *intervalScratch) parse(line []byte, jr *jsonRecord) bool {
	p := lineParser{b: line}
	return p.object(func(key []byte) (uint, bool) {
		var ok bool
		switch string(key) {
		case "proc":
			jr.Proc, ok = p.int()
			return 1 << 0, ok
		case "index":
			jr.Index, ok = p.int()
			return 1 << 1, ok
		case "bbv":
			s.bbv = s.bbv[:0]
			ok = p.array(func() bool {
				f, ok := p.float()
				s.bbv = append(s.bbv, f)
				return ok
			})
			jr.BBV = append(make([]float64, 0, len(s.bbv)), s.bbv...)
			return 1 << 2, ok
		case "wss":
			s.wss = s.wss[:0]
			ok = p.array(func() bool {
				w, ok := p.uint(math.MaxUint64)
				s.wss = append(s.wss, w)
				return ok
			})
			jr.WSS = s.wss
			return 1 << 3, ok
		case "dds":
			jr.DDS, ok = p.float()
			return 1 << 4, ok
		case "raw_dds":
			jr.RawDDS, ok = p.float()
			return 1 << 5, ok
		case "phase_id":
			_, ok = p.int()
			return 1 << 6, ok
		case "instructions":
			jr.Instructions, ok = p.uint(math.MaxUint64)
			return 1 << 7, ok
		case "cycles":
			jr.Cycles, ok = p.uint(math.MaxUint64)
			return 1 << 8, ok
		case "local_accesses":
			jr.Local, ok = p.uint(math.MaxUint64)
			return 1 << 9, ok
		case "remote_accesses":
			jr.Remote, ok = p.uint(math.MaxUint64)
			return 1 << 10, ok
		}
		return 0, false
	})
}

// csvHeader is the CSV column layout.
var csvHeader = []string{
	"proc", "index", "instructions", "cycles", "cpi",
	"dds", "raw_dds", "local_accesses", "remote_accesses",
}

// WriteCSV writes a per-interval summary (no BBV/WSS vectors).
func WriteCSV(w io.Writer, recs []core.IntervalSignature) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: csv header: %w", err)
	}
	for i := range recs {
		r := &recs[i]
		row := []string{
			strconv.Itoa(r.Proc),
			strconv.Itoa(r.Index),
			strconv.FormatUint(r.Instructions, 10),
			strconv.FormatUint(r.Cycles, 10),
			strconv.FormatFloat(r.CPI(), 'f', 6, 64),
			strconv.FormatFloat(r.DDS, 'f', 6, 64),
			strconv.FormatFloat(r.RawDDS, 'g', -1, 64),
			strconv.FormatUint(r.LocalAccesses, 10),
			strconv.FormatUint(r.RemoteAccesses, 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SplitByProc regroups a flattened record stream per processor, ordered
// by interval index within each processor.
func SplitByProc(recs []core.IntervalSignature) [][]core.IntervalSignature {
	maxProc := -1
	for i := range recs {
		if recs[i].Proc > maxProc {
			maxProc = recs[i].Proc
		}
	}
	out := make([][]core.IntervalSignature, maxProc+1)
	for i := range recs {
		out[recs[i].Proc] = append(out[recs[i].Proc], recs[i])
	}
	return out
}
