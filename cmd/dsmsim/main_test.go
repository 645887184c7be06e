package main

import (
	"bytes"
	"testing"

	"dsmphase/internal/coherence"
)

// TestWriteProtocolStats pins the stats rows per backend: each prints
// only the counters its protocol moves.
func TestWriteProtocolStats(t *testing.T) {
	ps := coherence.Stats{
		Loads: 1, Stores: 2, L1Hits: 3, L2Hits: 4, DirectoryTrips: 5, RemoteTrips: 6,
		Invalidations: 7, Forwards: 8, Writebacks: 9,
		PageFaults: 10, PageTransfers: 11, PageInvalidations: 12,
	}
	cases := []struct {
		kind coherence.Kind
		want string
	}{
		{coherence.KindDirectory, "loads / stores\t1 / 2\n" +
			"L1 hits / L2 hits\t3 / 4\n" +
			"directory trips (remote)\t5 (6)\n" +
			"invalidations / forwards\t7 / 8\n" +
			"writebacks\t9\n"},
		{coherence.KindIVY, "loads / stores\t1 / 2\n" +
			"resident-page hits\t3\n" +
			"manager trips (remote)\t5 (6)\n" +
			"forwards\t8\n" +
			"page faults / transfers\t10 / 11\n" +
			"page invalidations\t12\n"},
	}
	for _, c := range cases {
		var b bytes.Buffer
		writeProtocolStats(&b, c.kind, ps)
		if got := b.String(); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.kind, got, c.want)
		}
	}
}
