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

func TestCSVNumericFields(t *testing.T) {
	recs := sample()
	recs[0].RawDDS, recs[1].RawDDS, recs[2].RawDDS = 1.1e6, 0.5, 3e-7
	recs[2].Cycles, recs[2].RemoteAccesses = 3001, 0
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want := "proc,index,instructions,cycles,cpi,dds,raw_dds,local_accesses,remote_accesses\n" +
		"0,0,1000,2500,2.500000,1.100000,1.1e+06,80,20\n" +
		"0,1,1000,2500,2.500000,1.900000,0.5,80,20\n" +
		"1,0,1000,3001,3.001000,3.200000,3e-07,80,0\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}

// TestCSVIsLossy checks that the summary carries no vectors: records
// that differ only in BBV and WSS write the same bytes.
func TestCSVIsLossy(t *testing.T) {
	recs := sample()
	var a, b bytes.Buffer
	if err := WriteCSV(&a, recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].BBV = []float64{1, 0}
		recs[i].WSS.Touch(0x4000)
	}
	if err := WriteCSV(&b, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("CSV carries BBV or WSS:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}

// TestJSONLReadsOldPhaseID pins compatibility with traces written while
// the machine still classified: their records carry a "phase_id" key,
// which ReadJSONL discards. An integer takes the fast path; any other
// value falls back to encoding/json, which ignores the unknown key. Both
// read the same signature as the line without the key.
func TestJSONLReadsOldPhaseID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sample()[:1]); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	want, err := ReadJSONL(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(line, `,"instructions":`)
	for _, tc := range []struct {
		value string
		fast  bool
	}{
		{"-1", true},
		{"3", true},
		{"-1.5", false},
		{`"x"`, false},
		{"null", false},
		{"[1,2]", false},
	} {
		old := line[:at] + `,"phase_id":` + tc.value + line[at:]
		if got := new(intervalScratch).parse([]byte(old), &jsonRecord{}); got != tc.fast {
			t.Errorf("phase_id %s: fast path took it = %v, want %v", tc.value, got, tc.fast)
		}
		got, err := ReadJSONL(strings.NewReader(old + "\n"))
		if err != nil {
			t.Errorf("phase_id %s: %v", tc.value, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("phase_id %s: read\n%+v\nwant\n%+v", tc.value, got, want)
		}
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
