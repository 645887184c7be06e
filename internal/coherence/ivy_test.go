package coherence

import (
	"strings"
	"testing"
)

// TestIVYCheckInvariantsRejectsBadRows plants each page row the
// protocol must never build and requires CheckInvariants to name it.
func TestIVYCheckInvariantsRejectsBadRows(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		row  ivyPage
		want string
	}{
		{"writable with a second copy", ivyPage{Copyset: 0b0011, Owner: 0, Writable: true}, "writable at 0 with other copies"},
		{"owner outside copyset", ivyPage{Copyset: 0b0110, Owner: 0}, "owner 0 outside copyset"},
		{"negative owner", ivyPage{Copyset: 0b0001, Owner: -1}, "invalid owner -1"},
		{"owner out of range", ivyPage{Copyset: 0b0001, Owner: n}, "invalid owner 4"},
	}
	for _, c := range cases {
		_, params := confParams(n, DefaultPageBytes)
		p := NewIVY(params)
		p.pages.put(7, ivyPage{Copyset: 0b1010, Owner: 3}) // a valid read-shared row
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%s: valid row rejected: %v", c.name, err)
		}
		p.pages.put(9, c.row)
		err := p.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
