package slab

import "unsafe"

// Index is an open-addressing hash table from a pointer-free key to a slab
// Handle. It replaces the `map[K]*T` constellations around subscriber
// state: keys live by value in one flat array (no per-entry allocation, no
// tombstone accumulation) and the zero Handle doubles as the empty-slot
// marker, which is why Handles encode slot+1.
//
// Collision policy: linear probing with backward-shift deletion. Delete
// walks the cluster after the vacated slot and shifts every entry whose
// home position precedes the hole back into it, so lookups never need
// tombstones and probe lengths stay proportional to load. The table grows
// at 3/4 load, doubling capacity.
type Index[K comparable] struct {
	hash func(K) uint64
	keys []K
	vals []Handle
	n    int
	mask uint64
}

// indexMinSize is the initial table capacity (power of two).
const indexMinSize = 16

// NewIndex returns an empty index using the given hash function. The hash
// must be deterministic across runs — determinism tests replay traces, so
// no per-process seeding.
func NewIndex[K comparable](hash func(K) uint64) *Index[K] {
	return &Index[K]{hash: hash}
}

// Len returns the number of entries.
func (x *Index[K]) Len() int { return x.n }

// Bytes returns the memory the table's key and handle arrays hold.
func (x *Index[K]) Bytes() int {
	var zero K
	return len(x.vals) * (int(unsafe.Sizeof(zero)) + int(unsafe.Sizeof(Handle(0))))
}

// Get returns the handle stored under key, or the zero Handle.
func (x *Index[K]) Get(key K) Handle {
	if x.n == 0 {
		return 0
	}
	i := x.hash(key) & x.mask
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			return x.vals[i]
		}
		i = (i + 1) & x.mask
	}
	return 0
}

// Put stores key → h, replacing any existing entry. h must be non-zero.
func (x *Index[K]) Put(key K, h Handle) {
	if h == 0 {
		panic("slab: Index.Put with zero handle")
	}
	if x.vals == nil {
		x.grow(indexMinSize)
	} else if 4*(x.n+1) > 3*len(x.vals) {
		x.grow(2 * len(x.vals))
	}
	i := x.hash(key) & x.mask
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			x.vals[i] = h
			return
		}
		i = (i + 1) & x.mask
	}
	x.keys[i] = key
	x.vals[i] = h
	x.n++
}

// Delete removes key, reporting whether it was present. Removal uses
// backward-shift compaction: every displaced entry between the hole and
// the end of its probe cluster moves back toward its home slot.
func (x *Index[K]) Delete(key K) bool {
	if x.n == 0 {
		return false
	}
	i := x.hash(key) & x.mask
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			break
		}
		i = (i + 1) & x.mask
	}
	if x.vals[i] == 0 {
		return false
	}
	var zeroK K
	j := i
	for {
		j = (j + 1) & x.mask
		if x.vals[j] == 0 {
			break
		}
		h := x.hash(x.keys[j]) & x.mask
		// Entry at j may move into the hole at i only if its home
		// slot h does not lie strictly inside (i, j] — i.e. the probe
		// from h to j wraps past i.
		if (j-h)&x.mask >= (j-i)&x.mask {
			x.keys[i] = x.keys[j]
			x.vals[i] = x.vals[j]
			i = j
		}
	}
	x.keys[i] = zeroK
	x.vals[i] = 0
	x.n--
	return true
}

// Range calls fn for every entry in table order until fn returns false.
// Iteration order is a function of insertion/deletion history only —
// deterministic across runs, unlike Go map iteration.
func (x *Index[K]) Range(fn func(K, Handle) bool) {
	for i, v := range x.vals {
		if v != 0 && !fn(x.keys[i], v) {
			return
		}
	}
}

func (x *Index[K]) grow(size int) {
	oldKeys, oldVals := x.keys, x.vals
	x.keys = make([]K, size)
	x.vals = make([]Handle, size)
	x.mask = uint64(size - 1)
	x.n = 0
	for i, v := range oldVals {
		if v != 0 {
			x.Put(oldKeys[i], v)
		}
	}
}
