package trace

// Reference codecs: the encoding/json readers and writers the typed
// codecs replace, kept as the oracle the differential fuzzers and the
// writer property test compare against. The only change from the
// original readers is ReadJSONL's interval-order rule. They decode into
// the package's own wire types, so encoding/json's type errors name the
// same types as the typed reader's fallback.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dsmphase/internal/coherence"
	"dsmphase/internal/core"
)

// RefWriteAccessJSONL is WriteAccessJSONL through json.Encoder.
func RefWriteAccessJSONL(w io.Writer, recs []Access) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encoding access %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// RefReadAccessJSONL is ReadAccessJSONL through json.Decoder.
func RefReadAccessJSONL(r io.Reader) ([]Access, error) {
	var out []Access
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var a Access
		if err := dec.Decode(&a); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding access %d: %w", len(out), err)
		}
		if _, err := a.Inst(); err != nil {
			return nil, fmt.Errorf("trace: access %d: %w", len(out), err)
		}
		if a.Proc < 0 {
			return nil, fmt.Errorf("trace: access %d has negative proc %d", len(out), a.Proc)
		}
		if a.Proc >= coherence.MaxProcs {
			return nil, fmt.Errorf("trace: access %d has proc %d; systems have at most %d processors",
				len(out), a.Proc, coherence.MaxProcs)
		}
		if a.N < 0 {
			return nil, fmt.Errorf("trace: access %d has negative repeat %d", len(out), a.N)
		}
		out = append(out, a)
	}
}

// RefWriteJSONL is WriteJSONL through json.Encoder.
func RefWriteJSONL(w io.Writer, recs []core.IntervalSignature) error {
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

// RefReadJSONL is ReadJSONL through json.Decoder.
func RefReadJSONL(r io.Reader) ([]core.IntervalSignature, error) {
	var out []core.IntervalSignature
	var next [coherence.MaxProcs]int
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
		if jr.Index != next[jr.Proc] {
			return nil, fmt.Errorf("trace: interval %d (proc %d) has index %d, want %d",
				len(out), jr.Proc, jr.Index, next[jr.Proc])
		}
		next[jr.Proc]++
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
