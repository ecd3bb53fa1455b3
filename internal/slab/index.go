package slab

import (
	"math/bits"
	"unsafe"
)

// Table is an open-addressing hash table from a pointer-free key to a
// non-zero value of one fixed width: a full Handle (Index), a 32-bit row
// reference (RowIndex) or a 32-bit symbol. It replaces the `map[K]*T`
// constellations around subscriber state: keys live by value in one flat
// array (no per-entry allocation, no tombstone accumulation) and the zero
// value doubles as the empty-cell marker, which is why Handles and row
// references encode slot+1.
//
// Collision policy: linear probing with backward-shift deletion. Delete
// walks the cluster after the vacated slot and shifts every entry whose
// home position precedes the hole back into it, so lookups never need
// tombstones and probe lengths stay proportional to load. The table grows
// at 3/4 load: it doubles while it is small and grows by half from
// indexTaper cells on, so a table sized by a population lives between 50 %
// and 75 % full. Capacity is therefore any integer, not a power of two.
type Table[K comparable, V ~uint32 | ~uint64] struct {
	hash func(K) uint64
	keys []K
	vals []V
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

// NewTable returns an empty table using the given hash function. The hash
// must be deterministic across runs — determinism tests replay traces, so
// no per-process seeding.
func NewTable[K comparable, V ~uint32 | ~uint64](hash func(K) uint64) *Table[K, V] {
	return &Table[K, V]{hash: hash}
}

// Len returns the number of entries.
func (x *Table[K, V]) Len() int { return x.n }

// Bytes returns the memory the table's key and value arrays hold: a cell is
// the key plus the value's width.
func (x *Table[K, V]) Bytes() int {
	var k K
	var v V
	return len(x.vals) * (int(unsafe.Sizeof(k)) + int(unsafe.Sizeof(v)))
}

// home returns key's home slot: the high word of mix(hash) × capacity, which
// is uniform over any capacity. It reads the top bits of the hash, and
// FNV-1a's top bits barely move across sequential names, so one
// multiplicative mix carries the low bits up first. The mix lives here and
// not in the hash functions: nodes pick a row's slab shard from
// key.Hash() & (shards-1), and those values are part of the trace contract.
func (x *Table[K, V]) home(key K) uint64 {
	hi, _ := bits.Mul64(x.hash(key)*0x9E3779B97F4A7C15, uint64(len(x.vals)))
	return hi
}

// next returns the slot after i, wrapping at capacity.
func (x *Table[K, V]) next(i uint64) uint64 {
	if i++; i == uint64(len(x.vals)) {
		return 0
	}
	return i
}

// Get returns the value stored under key, or zero.
func (x *Table[K, V]) Get(key K) V {
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

// Put stores key → v, replacing any existing entry. v must be non-zero.
func (x *Table[K, V]) Put(key K, v V) {
	if v == 0 {
		panic("slab: Put with a zero value")
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
			x.vals[i] = v
			return
		}
		i = x.next(i)
	}
	x.keys[i] = key
	x.vals[i] = v
	x.n++
}

// Delete removes key, reporting whether it was present. Removal uses
// backward-shift compaction: every displaced entry between the hole and
// the end of its probe cluster moves back toward its home slot.
func (x *Table[K, V]) Delete(key K) bool {
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

// each calls fn for every entry, in table order — a hash order. It is
// unexported so that only the audits in this package can walk a table:
// anything that emits messages or chooses among records walks the rows
// (Sharded.Range).
func (x *Table[K, V]) each(fn func(K, V)) {
	for i, v := range x.vals {
		if v != 0 {
			fn(x.keys[i], v)
		}
	}
}

func (x *Table[K, V]) grow(size int) {
	oldKeys, oldVals := x.keys, x.vals
	x.keys = make([]K, size)
	x.vals = make([]V, size)
	x.n = 0
	for i, v := range oldVals {
		if v != 0 {
			x.Put(oldKeys[i], v)
		}
	}
}

// Index is a Table of full generational Handles, bound to no slab: Get
// returns whatever handle was stored, and the caller resolves it. The
// subscriber stores use RowIndex, whose cells are half the value width.
type Index[K comparable] struct {
	Table[K, Handle]
}

// NewIndex returns an empty index using the given hash function (see
// NewTable).
func NewIndex[K comparable](hash func(K) uint64) *Index[K] {
	return &Index[K]{Table[K, Handle]{hash: hash}}
}

// A row reference is what a RowIndex cell stores instead of a Handle: the
// shard in the top 8 bits and slot+1 in the low 24, so a shard holds at most
// maxRefSlot rows an index can name. It carries no generation; a lookup
// checks the slot is live and that the row carries the key instead.
const (
	refSlotBits = 24
	maxRefSlot  = 1<<refSlotBits - 1 // the largest slot+1
)

// RowIndex is an index from a key to the row of one Sharded slab that
// carries it. It is bound at construction to the slab and to the identity
// predicate match — "this row carries this key" — so a cell needs only a
// 32-bit row reference, and one Get both finds the row and proves it is the
// right one: a lookup returns a row only if its slot is live and match
// accepts it. An entry whose row was freed, or whose slot now holds a row
// for another key, looks up as absent, as a stale Handle does in
// Sharded.Get.
//
// Put does not read the row: the row must carry the key by the next lookup.
type RowIndex[K comparable, T any] struct {
	refs  Table[K, uint32]
	rows  *Sharded[T]
	match func(K, *T) bool
}

// NewRowIndex returns an empty index over rows (see NewTable for hash).
func NewRowIndex[K comparable, T any](rows *Sharded[T], hash func(K) uint64, match func(K, *T) bool) *RowIndex[K, T] {
	return &RowIndex[K, T]{refs: Table[K, uint32]{hash: hash}, rows: rows, match: match}
}

// Len returns the number of entries.
func (x *RowIndex[K, T]) Len() int { return x.refs.n }

// Bytes returns the memory the table holds: the key plus 4 bytes a cell.
func (x *RowIndex[K, T]) Bytes() int { return x.refs.Bytes() }

// Get returns key's row and its current Handle, or (0, nil) if key has no
// entry or its entry no longer names a live row carrying key. It probes
// the table itself rather than calling refs.Get: the call was a fifth of a
// lookup at 30,000 rows.
func (x *RowIndex[K, T]) Get(key K) (Handle, *T) {
	t := &x.refs
	if t.n == 0 {
		return 0, nil
	}
	for i := t.home(key); t.vals[i] != 0; i = t.next(i) {
		if t.keys[i] == key {
			return x.resolve(key, t.vals[i])
		}
	}
	return 0, nil
}

// resolve checks one row reference against key.
func (x *RowIndex[K, T]) resolve(key K, ref uint32) (Handle, *T) {
	if int(ref>>refSlotBits) >= len(x.rows.shards) {
		return 0, nil
	}
	sh := &x.rows.shards[ref>>refSlotBits]
	slot := ref&maxRefSlot - 1
	if int(slot) >= len(sh.gens) || sh.gens[slot]&1 == 0 {
		return 0, nil
	}
	p := sh.at(slot)
	if !x.match(key, p) {
		return 0, nil
	}
	return makeHandle(sh.shard, slot, sh.gens[slot]), p
}

// Put enters key → the row behind h, replacing any existing entry. It panics
// on the zero Handle and on a slot a row reference cannot name.
func (x *RowIndex[K, T]) Put(key K, h Handle) {
	if h == 0 || uint32(h) > maxRefSlot {
		panic("slab: RowIndex.Put: handle has no 32-bit row reference")
	}
	x.refs.Put(key, uint32(h.Shard())<<refSlotBits|uint32(h))
}

// Delete removes key, reporting whether it was present.
func (x *RowIndex[K, T]) Delete(key K) bool { return x.refs.Delete(key) }

// Audit checks the index that owns its slab's rows — the one every row is
// entered in exactly once — against them, and returns the number of
// disagreements: entries that do not resolve to a live row carrying their
// key, the gap between each shard's live count and the entries resolving
// into it, and the slab's Imbalance. Zero means no leaked row, no stale or
// misdirected entry and no slot lost.
func (x *RowIndex[K, T]) Audit() int {
	s := x.rows
	n := s.Imbalance()
	perShard := make([]int, len(s.shards))
	x.refs.each(func(k K, ref uint32) {
		if h, _ := x.resolve(k, ref); h == 0 {
			n++
		} else {
			perShard[h.Shard()]++
		}
	})
	for i := range s.shards {
		d := perShard[i] - s.shards[i].live
		n += max(d, -d)
	}
	return n
}

// Stale checks any further index over the slab's rows: it returns the
// number of entries that do not resolve to a live row carrying their key.
func (x *RowIndex[K, T]) Stale() int {
	n := 0
	x.refs.each(func(k K, ref uint32) {
		if h, _ := x.resolve(k, ref); h == 0 {
			n++
		}
	})
	return n
}
