package coherence

import (
	"maps"
	"math/rand/v2"
	"testing"
)

// checkAgainst requires tb to hold exactly ref's entries, both by
// lookup and by iteration.
func checkAgainst(t *testing.T, tb *table[uint32], ref map[uint64]uint32) {
	t.Helper()
	if tb.len() != len(ref) {
		t.Fatalf("len = %d, want %d", tb.len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tb.get(k); !ok || got != want {
			t.Fatalf("get(%d) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
	seen := map[uint64]uint32{}
	tb.each(func(k uint64, v uint32) { seen[k] = v })
	if !maps.Equal(seen, ref) {
		t.Fatalf("each visited %d entries, want %d", len(seen), len(ref))
	}
}

// TestTableMatchesMap drives the table and a Go map with one random
// sequence of puts, slot updates and deletes over a key space small
// enough to collide constantly, through several growths and back down
// to empty.
func TestTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var tb table[uint32]
	ref := map[uint64]uint32{}
	const keys = 3000
	for i := 0; i < 60_000; i++ {
		k := uint64(r.IntN(keys)) * 97 // strided, like line addresses of one home
		switch op := r.IntN(10); {
		case op < 5:
			v := r.Uint32()
			tb.put(k, v)
			ref[k] = v
		case op < 7:
			*tb.slot(k) += 3
			ref[k] += 3
		default:
			tb.del(k)
			delete(ref, k)
		}
		got, ok := tb.get(k)
		if want, wantOK := ref[k]; got != want || ok != wantOK {
			t.Fatalf("op %d: get(%d) = (%d, %v), want (%d, %v)", i, k, got, ok, want, wantOK)
		}
		if i%5000 == 0 {
			checkAgainst(t, &tb, ref)
		}
	}
	checkAgainst(t, &tb, ref)
	for k := range ref {
		tb.del(k)
		delete(ref, k)
	}
	checkAgainst(t, &tb, ref)
	if _, ok := tb.get(97); ok {
		t.Fatal("emptied table still finds a key")
	}
}

// TestTableDeleteAcrossWrap builds a probe run that wraps from the last
// slot to the first and deletes from its head: backward shift must pull
// the wrapped entries back across the boundary, and stop at an entry
// already in its home slot.
func TestTableDeleteAcrossWrap(t *testing.T) {
	var tb table[uint32]
	tb.grow() // tableMinSlots slots, no entries
	last := uint64(len(tb.keys) - 1)
	var atLast, atZero, atTwo []uint64
	for k := uint64(0); len(atLast) < 3 || len(atZero) < 1 || len(atTwo) < 1; k++ {
		switch tb.home(k) {
		case last:
			atLast = append(atLast, k)
		case 0:
			atZero = append(atZero, k)
		case 2:
			atTwo = append(atTwo, k)
		}
	}
	// Slots: last, 0, 1 hold atLast[0..2]; 2 holds atZero[0] (displaced
	// from slot 0); 3 holds atTwo[0] (displaced from its home, slot 2).
	ref := map[uint64]uint32{}
	for i, k := range []uint64{atLast[0], atLast[1], atLast[2], atZero[0], atTwo[0]} {
		tb.put(k, uint32(i+1))
		ref[k] = uint32(i + 1)
	}
	if tb.keys[last] != atLast[0] || tb.keys[0] != atLast[1] || tb.keys[1] != atLast[2] ||
		tb.keys[2] != atZero[0] || tb.keys[3] != atTwo[0] {
		t.Fatalf("unexpected layout %x", tb.keys)
	}
	tb.del(atLast[0])
	delete(ref, atLast[0])
	checkAgainst(t, &tb, ref)
	if tb.keys[last] != atLast[1] || tb.keys[0] != atLast[2] || tb.keys[1] != atZero[0] ||
		tb.keys[2] != atTwo[0] || tb.keys[3] != emptyKey {
		t.Fatalf("backward shift left layout %x", tb.keys)
	}
	tb.del(atLast[2]) // now in slot 0, ahead of atZero[0] and atTwo[0]
	delete(ref, atLast[2])
	checkAgainst(t, &tb, ref)
	if tb.keys[0] != atZero[0] || tb.keys[1] != emptyKey || tb.keys[2] != atTwo[0] {
		t.Fatalf("backward shift left layout %x", tb.keys)
	}
}
