package coherence

import (
	"testing"

	"dsmphase/internal/cache"
)

// TestReleaseKeepsStatsAndForbidsUse releases both backends mid-run:
// statistics survive, a second Release is harmless, and any further
// access or invariant check panics with errReleased.
func TestReleaseKeepsStatsAndForbidsUse(t *testing.T) {
	dirP, ivyP := confParams(4, DefaultPageBytes)
	for _, p := range []Protocol{NewDirectory(dirP), NewIVY(ivyP)} {
		runTrace(t, p, privateTrace(4))
		before := p.Stats()
		p.Release()
		p.Release()
		if p.Stats() != before {
			t.Errorf("%s: Stats changed across Release: %+v -> %+v", p.Kind(), before, p.Stats())
		}
		for name, use := range map[string]func(){
			"Access":          func() { p.Access(0, 0, 0, false) },
			"CheckInvariants": func() { p.CheckInvariants() },
		} {
			func() {
				defer func() {
					if r := recover(); r != errReleased {
						t.Errorf("%s: %s after Release: panic %v, want %v", p.Kind(), name, r, errReleased)
					}
				}()
				use()
			}()
		}
	}
}

// TestDirectoryReuseMatchesFresh runs one shared trace on a directory
// backend, releases it, and runs the trace again on a new backend of
// the same geometry — whose caches come back out of the pool — and on
// one of a smaller system first: every result and the statistics must
// equal the first run's. The caches are tiny so the trace evicts.
func TestDirectoryReuseMatchesFresh(t *testing.T) {
	const n = 4
	params := func(n int) Params {
		p, _ := confParams(n, DefaultPageBytes)
		p.L1 = cache.Config{SizeBytes: 256, Ways: 1, LineBytes: 32, HitCycles: 1}
		p.L2 = cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, HitCycles: 12}
		return p
	}
	trace := sharedTrace(n, 3_000, 5)
	ref := NewDirectory(params(n))
	want := runTrace(t, ref, trace)
	wantStats := ref.Stats()
	ref.Release()
	for round := 0; round < 3; round++ {
		if round == 2 {
			s := NewDirectory(params(2))
			runTrace(t, s, sharedTrace(2, 500, 9))
			s.Release()
		}
		p := NewDirectory(params(n))
		got := runTrace(t, p, trace)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d access %d: %+v, want %+v", round, i, got[i], want[i])
			}
		}
		if p.Stats() != wantStats {
			t.Fatalf("round %d: stats %+v, want %+v", round, p.Stats(), wantStats)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		p.Release()
	}
}
