// Package trace serializes recorded interval signatures so experiments
// can be split into a simulate-once recording step and any number of
// offline analysis steps (threshold sweeps, predictor studies, tuning
// replays) without re-running the machine.
//
// Two formats are provided: JSONL (full fidelity — BBV, WSS, DDS —
// round-trips exactly) and CSV (a lossy per-interval summary for
// spreadsheets and plotting tools).
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
)

// jsonRecord is the JSONL wire form of an interval signature.
type jsonRecord struct {
	Proc         int       `json:"proc"`
	Index        int       `json:"index"`
	BBV          []float64 `json:"bbv"`
	WSS          []uint64  `json:"wss"`
	DDS          float64   `json:"dds"`
	RawDDS       float64   `json:"raw_dds"`
	PhaseID      int       `json:"phase_id"`
	Instructions uint64    `json:"instructions"`
	Cycles       uint64    `json:"cycles"`
	Local        uint64    `json:"local_accesses"`
	Remote       uint64    `json:"remote_accesses"`
}

// WriteJSONL writes one JSON object per interval.
func WriteJSONL(w io.Writer, recs []core.IntervalSignature) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		r := &recs[i]
		jr := jsonRecord{
			Proc:         r.Proc,
			Index:        r.Index,
			BBV:          r.BBV,
			WSS:          r.WSS[:],
			DDS:          r.DDS,
			RawDDS:       r.RawDDS,
			PhaseID:      r.PhaseID,
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			Local:        r.LocalAccesses,
			Remote:       r.RemoteAccesses,
		}
		if err := enc.Encode(&jr); err != nil {
			return fmt.Errorf("trace: encoding interval %d/%d: %w", r.Proc, r.Index, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSONL stream written by WriteJSONL. It rejects a
// record that SplitByProc or classification could not take: a negative
// proc or index, a proc no simulated system has (SplitByProc allocates
// one slot per processor up to the largest), or a BBV whose length
// differs from the first record's.
func ReadJSONL(r io.Reader) ([]core.IntervalSignature, error) {
	var out []core.IntervalSignature
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var jr jsonRecord
		if err := dec.Decode(&jr); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding interval %d: %w", len(out), err)
		}
		if len(jr.WSS) != core.WSSWords {
			return nil, fmt.Errorf("trace: interval %d has %d WSS words, want %d",
				len(out), len(jr.WSS), core.WSSWords)
		}
		if jr.Proc < 0 || jr.Index < 0 {
			return nil, fmt.Errorf("trace: interval %d has proc %d, index %d; both must be non-negative",
				len(out), jr.Proc, jr.Index)
		}
		if jr.Proc >= coherence.MaxProcs {
			return nil, fmt.Errorf("trace: interval %d has proc %d; systems have at most %d processors",
				len(out), jr.Proc, coherence.MaxProcs)
		}
		// Classification takes Manhattan distances between any two
		// intervals of a processor, which needs one BBV length throughout.
		if len(out) > 0 && len(jr.BBV) != len(out[0].BBV) {
			return nil, fmt.Errorf("trace: interval %d (proc %d, index %d) has %d BBV entries, want %d as in interval 0",
				len(out), jr.Proc, jr.Index, len(jr.BBV), len(out[0].BBV))
		}
		sig := core.IntervalSignature{
			Proc:           jr.Proc,
			Index:          jr.Index,
			BBV:            jr.BBV,
			DDS:            jr.DDS,
			RawDDS:         jr.RawDDS,
			PhaseID:        jr.PhaseID,
			Instructions:   jr.Instructions,
			Cycles:         jr.Cycles,
			LocalAccesses:  jr.Local,
			RemoteAccesses: jr.Remote,
		}
		copy(sig.WSS[:], jr.WSS)
		out = append(out, sig)
	}
}

// csvHeader is the CSV column layout.
var csvHeader = []string{
	"proc", "index", "instructions", "cycles", "cpi",
	"dds", "raw_dds", "phase_id", "local_accesses", "remote_accesses",
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
			strconv.Itoa(r.PhaseID),
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

// ReadCSV reads a summary written by WriteCSV. BBV and WSS are empty in
// the result (CSV is lossy); the numeric fields round-trip.
func ReadCSV(r io.Reader) ([]core.IntervalSignature, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != "proc" {
		return nil, fmt.Errorf("trace: unexpected csv header %v", rows[0])
	}
	out := make([]core.IntervalSignature, 0, len(rows)-1)
	for i, row := range rows[1:] {
		var sig core.IntervalSignature
		var err error
		if sig.Proc, err = strconv.Atoi(row[0]); err == nil {
			if sig.Index, err = strconv.Atoi(row[1]); err == nil {
				if sig.Instructions, err = strconv.ParseUint(row[2], 10, 64); err == nil {
					if sig.Cycles, err = strconv.ParseUint(row[3], 10, 64); err == nil {
						// row[4] is the derived CPI; skip.
						if sig.DDS, err = strconv.ParseFloat(row[5], 64); err == nil {
							if sig.RawDDS, err = strconv.ParseFloat(row[6], 64); err == nil {
								if sig.PhaseID, err = strconv.Atoi(row[7]); err == nil {
									if sig.LocalAccesses, err = strconv.ParseUint(row[8], 10, 64); err == nil {
										sig.RemoteAccesses, err = strconv.ParseUint(row[9], 10, 64)
									}
								}
							}
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", i+1, err)
		}
		out = append(out, sig)
	}
	return out, nil
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
