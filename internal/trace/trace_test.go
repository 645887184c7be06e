package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dsmphase/internal/core"
)

func sample() []core.IntervalSignature {
	mk := func(proc, idx int, dds float64) core.IntervalSignature {
		sig := core.IntervalSignature{
			Proc: proc, Index: idx,
			BBV:           []float64{0.25, 0.75},
			DDS:           dds,
			RawDDS:        dds * 1e6,
			Instructions:  1000,
			Cycles:        2500,
			LocalAccesses: 80, RemoteAccesses: 20,
		}
		sig.WSS.Touch(uint32(0x1000 * (idx + 1)))
		return sig
	}
	return []core.IntervalSignature{mk(0, 0, 1.1), mk(0, 1, 1.9), mk(1, 0, 3.2)}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

func TestJSONLEmpty(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream = (%v, %v)", got, err)
	}
}

func TestJSONLRejectsBadWSS(t *testing.T) {
	line := `{"proc":0,"index":0,"bbv":[1],"wss":[1,2,3],"dds":0}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(line)); err == nil {
		t.Error("short WSS must be rejected")
	}
}

// TestJSONLRejectsUnusableRecords covers records that would panic
// later stages: classification takes Manhattan distances between BBVs
// of one length, and SplitByProc indexes by proc and allocates a slot
// per processor up to the largest.
func TestJSONLRejectsUnusableRecords(t *testing.T) {
	wss := `,"wss":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]`
	for _, tc := range []struct {
		name, stream, wantErr string
	}{
		{
			name: "bbv length changes",
			stream: `{"proc":0,"index":0,"bbv":[0.5,0.5]` + wss + `}` + "\n" +
				`{"proc":0,"index":1,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 1 (proc 0, index 1) has 1 BBV entries, want 2",
		},
		{
			name:    "negative proc",
			stream:  `{"proc":-1,"index":0,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 0 has proc -1, index 0",
		},
		{
			name:    "proc past the largest system",
			stream:  `{"proc":2000000000,"index":0,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 0 has proc 2000000000; systems have at most 64 processors",
		},
		{
			name: "first proc past the largest system",
			stream: `{"proc":63,"index":0,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":64,"index":0,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 1 has proc 64",
		},
		{
			name: "negative index",
			stream: `{"proc":0,"index":0,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":0,"index":-3,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 1 has proc 0, index -3",
		},
		{
			// SplitByProc would return these in stream order, not
			// interval order.
			name: "out-of-order index",
			stream: `{"proc":0,"index":1,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":0,"index":0,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":0,"index":0,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 0 (proc 0) has index 1, want 0",
		},
		{
			name: "repeated index",
			stream: `{"proc":0,"index":0,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":1,"index":0,"bbv":[1]` + wss + `}` + "\n" +
				`{"proc":0,"index":0,"bbv":[1]` + wss + `}` + "\n",
			wantErr: "interval 2 (proc 0) has index 0, want 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadJSONL(strings.NewReader(tc.stream))
			if err == nil {
				t.Fatalf("accepted %d records", len(recs))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the interval (want %q)", err, tc.wantErr)
			}
		})
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{oops\n")); err == nil {
		t.Error("garbage must error")
	}
}

func TestCSVRoundTripNumericFields(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d rows", len(got))
	}
	for i := range got {
		if got[i].Proc != recs[i].Proc || got[i].Index != recs[i].Index ||
			got[i].Instructions != recs[i].Instructions ||
			got[i].Cycles != recs[i].Cycles ||
			got[i].LocalAccesses != recs[i].LocalAccesses ||
			got[i].RemoteAccesses != recs[i].RemoteAccesses {
			t.Errorf("row %d numeric mismatch: %+v vs %+v", i, got[i], recs[i])
		}
		if got[i].DDS != recs[i].DDS {
			t.Errorf("row %d DDS = %v, want %v", i, got[i].DDS, recs[i].DDS)
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong header must be rejected")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty csv must error")
	}
}

func TestCSVBadNumber(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), "1000", "oops", 1)
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad number must error")
	}
}

func TestCSVIsLossy(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].BBV != nil {
		t.Error("CSV must not carry the BBV")
	}
	if got[0].WSS.Population() != 0 {
		t.Error("CSV must not carry the WSS")
	}
}

func TestSplitByProc(t *testing.T) {
	recs := sample()
	split := SplitByProc(recs)
	if len(split) != 2 {
		t.Fatalf("split into %d procs, want 2", len(split))
	}
	if len(split[0]) != 2 || len(split[1]) != 1 {
		t.Errorf("split sizes %d/%d, want 2/1", len(split[0]), len(split[1]))
	}
	if split[0][1].Index != 1 {
		t.Error("intra-processor order must be preserved")
	}
	if len(SplitByProc(nil)) != 0 {
		t.Error("empty input must yield empty output")
	}
}
