package trace

import (
	"strings"
	"testing"
)

// TestAccessJSONLRejectsUnusableRecords checks that ReadAccessJSONL
// names the record it rejects. A proc past the largest system would
// make the workload layer allocate one stream per processor up to it.
func TestAccessJSONLRejectsUnusableRecords(t *testing.T) {
	for _, tc := range []struct {
		name, stream, wantErr string
	}{
		{
			name:    "unknown op",
			stream:  `{"proc":0,"op":"jmp","pc":4}` + "\n",
			wantErr: `access 0: trace: unknown op "jmp"`,
		},
		{
			name:    "negative proc",
			stream:  `{"proc":-1,"op":"int","pc":4}` + "\n",
			wantErr: "access 0 has negative proc -1",
		},
		{
			name:    "proc past the largest system",
			stream:  `{"proc":1000000000000,"op":"load","pc":4096,"addr":1048576}` + "\n",
			wantErr: "access 0 has proc 1000000000000; systems have at most 64 processors",
		},
		{
			name: "first proc past the largest system",
			stream: `{"proc":63,"op":"int","pc":4}` + "\n" +
				`{"proc":64,"op":"int","pc":4}` + "\n",
			wantErr: "access 1 has proc 64",
		},
		{
			name:    "negative repeat",
			stream:  `{"proc":0,"op":"int","pc":4,"n":-2}` + "\n",
			wantErr: "access 0 has negative repeat -2",
		},
		{
			name:    "garbage",
			stream:  `{"proc":0,"op":"int","pc":4}` + "\n{oops\n",
			wantErr: "decoding access 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadAccessJSONL(strings.NewReader(tc.stream))
			if err == nil {
				t.Fatalf("accepted %d records", len(recs))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the record (want %q)", err, tc.wantErr)
			}
		})
	}
}
