package slab

import (
	"math/bits"
	"unsafe"
)

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
// at 3/4 load: it doubles while it is small and grows by half from
// indexTaper cells on, so a table sized by a population lives between 50 %
// and 75 % full. Capacity is therefore any integer, not a power of two.
type Index[K comparable] struct {
	hash func(K) uint64
	keys []K
	vals []Handle
	n    int
}

const (
	// indexMinSize is the initial table capacity.
	indexMinSize = 16
	// indexTaper is the capacity from which growth is by half instead of
	// doubling. The tables of a small world (a few hundred subscribers,
	// built by the thousand in a sweep) never reach it.
	indexTaper = 4096
)

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

// home returns key's home slot: the high word of mix(hash) × capacity, which
// is uniform over any capacity. It reads the top bits of the hash, and
// FNV-1a's top bits barely move across sequential names, so one
// multiplicative mix carries the low bits up first. The mix lives here and
// not in the hash functions: nodes pick a row's slab shard from
// key.Hash() & (shards-1), and those values are part of the trace contract.
func (x *Index[K]) home(key K) uint64 {
	hi, _ := bits.Mul64(x.hash(key)*0x9E3779B97F4A7C15, uint64(len(x.vals)))
	return hi
}

// next returns the slot after i, wrapping at capacity.
func (x *Index[K]) next(i uint64) uint64 {
	if i++; i == uint64(len(x.vals)) {
		return 0
	}
	return i
}

// Get returns the handle stored under key, or the zero Handle.
func (x *Index[K]) Get(key K) Handle {
	if x.n == 0 {
		return 0
	}
	i := x.home(key)
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			return x.vals[i]
		}
		i = x.next(i)
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
	} else if c := len(x.vals); 4*(x.n+1) > 3*c {
		if c < indexTaper {
			x.grow(2 * c)
		} else {
			x.grow(c + c/2)
		}
	}
	i := x.home(key)
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			x.vals[i] = h
			return
		}
		i = x.next(i)
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
	i := x.home(key)
	for x.vals[i] != 0 {
		if x.keys[i] == key {
			break
		}
		i = x.next(i)
	}
	if x.vals[i] == 0 {
		return false
	}
	var zeroK K
	j := i
	for {
		j = x.next(j)
		if x.vals[j] == 0 {
			break
		}
		// Entry at j may move into the hole at i only if its home
		// slot h does not lie strictly inside (i, j] — i.e. the probe
		// from h to j passes i. Both distances are taken modulo 2^64,
		// not modulo capacity: a distance that wraps the end of the
		// table gains the same 2^64 − capacity on either side, and one
		// that wraps always exceeds one that does not, as it should.
		if h := x.home(x.keys[j]); j-h >= j-i {
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

// Range calls fn for every entry until fn returns false. It is for audits
// and sweeps; order unspecified. Anything that emits messages or chooses
// among records walks the rows instead (Sharded.Range).
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
	x.n = 0
	for i, v := range oldVals {
		if v != 0 {
			x.Put(oldKeys[i], v)
		}
	}
}
