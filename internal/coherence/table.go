package coherence

import "math/bits"

// table is the flat hash table that holds coherence state: directory
// rows keyed by line address, IVY page rows keyed by page address. It
// is open-addressed with linear probing over parallel key/value arrays,
// a multiplicative (Fibonacci) hash, and backward-shift deletion, so a
// lookup is a multiply, a shift and a short scan of one array, and a
// delete leaves no tombstones behind.
//
// emptyKey marks a free slot. No reachable key collides with it: keys
// are byte addresses shifted right by the line or page bits, so
// all-ones would require a byte address beyond the address space (the
// argument behind cache.noTag).
//
// The zero table is empty and allocates on its first insertion.
type table[V any] struct {
	keys  []uint64
	vals  []V
	n     int
	shift uint   // 64 - log2(len(keys))
	mask  uint64 // len(keys) - 1
}

const (
	emptyKey = ^uint64(0)
	// hashMul is 2^64 divided by the golden ratio: multiplying by it and
	// keeping the top bits spreads consecutive addresses evenly.
	hashMul = 0x9E3779B97F4A7C15
	// tableMinSlots is the capacity of a table's first allocation.
	tableMinSlots = 16
)

// home returns the slot a key hashes to.
func (t *table[V]) home(k uint64) uint64 { return (k * hashMul) >> t.shift }

// find returns k's slot, or -1 if k is absent (emptyKey is never
// present).
func (t *table[V]) find(k uint64) int {
	if t.n == 0 || k == emptyKey {
		return -1
	}
	for i := t.home(k); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return int(i)
		case emptyKey:
			return -1
		}
	}
}

// get returns k's value and whether it is present (the zero value if
// not).
func (t *table[V]) get(k uint64) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// put stores v under k.
func (t *table[V]) put(k uint64, v V) { *t.slot(k) = v }

// slot returns a pointer to k's value, inserting the zero value if k is
// absent. The pointer is valid until the next slot, put or del.
func (t *table[V]) slot(k uint64) *V {
	if k == emptyKey {
		panic("coherence: table key collides with the free-slot marker")
	}
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	i := t.home(k)
	for t.keys[i] != k {
		if t.keys[i] == emptyKey {
			t.keys[i] = k
			t.n++
			break
		}
		i = (i + 1) & t.mask
	}
	return &t.vals[i]
}

// del removes k if present.
func (t *table[V]) del(k uint64) {
	if i := t.find(k); i >= 0 {
		t.remove(i)
	}
}

// remove empties slot i by backward-shift deletion: each later entry of
// the probe run moves into the hole when the hole lies between its home
// slot and its current slot, so every remaining key stays reachable
// from its home without tombstones.
func (t *table[V]) remove(i int) {
	hole := uint64(i)
	for j := (hole + 1) & t.mask; t.keys[j] != emptyKey; j = (j + 1) & t.mask {
		if (j-t.home(t.keys[j]))&t.mask >= (j-hole)&t.mask {
			t.keys[hole], t.vals[hole] = t.keys[j], t.vals[j]
			hole = j
		}
	}
	var zero V
	t.keys[hole], t.vals[hole] = emptyKey, zero
	t.n--
}

// len returns the number of stored keys.
func (t *table[V]) len() int { return t.n }

// each visits every entry in slot order.
func (t *table[V]) each(fn func(k uint64, v V)) {
	for i, k := range t.keys {
		if k != emptyKey {
			fn(k, t.vals[i])
		}
	}
}

// grow doubles the capacity (keeping the load at most one half) and
// reinserts every entry.
func (t *table[V]) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), tableMinSlots)
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	t.n = 0
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.mask = uint64(size - 1)
	for i, k := range keys {
		if k != emptyKey {
			t.put(k, vals[i])
		}
	}
}
