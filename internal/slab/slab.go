// Package slab provides the arena-backed storage primitives behind the
// million-subscriber core: chunked value slabs with generational free-lists,
// open-addressing index tables from identity keys to slab rows, and
// small interners for low-cardinality values (node names, location areas).
//
// The design goal is a bounded, measurable bytes/subscriber figure. A
// subscriber context lives by value inside a slab chunk — no per-record
// heap object, no interior pointers for the GC to trace — and every lookup
// structure that used to be a `map[K]*T` becomes a RowIndex mapping a
// pointer-free key to a 32-bit reference to the row that carries it. The
// slab idiom (index-based records with a free-list) is the same one the
// event heap in internal/sim and the ss7 timer records already use; this
// package generalises it with generation tags so a stale handle can never
// resurrect a recycled slot, and an index lookup checks the row's identity
// for the same reason.
package slab

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Handle names one live slot in a Slab. The packed layout is
//
//	bits 32..55  generation (24 bits, odd while the slot is live)
//	bits  0..31  slot index + 1
//
// The +1 on the slot index keeps the zero Handle permanently invalid, so
// Index tables can use 0 as their empty marker and callers can use the
// zero value as "no record".
type Handle uint64

const (
	genBits = 24
	genMask = 1<<genBits - 1
)

// IsZero reports whether the handle is the invalid zero value.
func (h Handle) IsZero() bool { return h == 0 }

func (h Handle) slot() uint32 { return uint32(h) - 1 }

func (h Handle) gen() uint32 { return uint32(h>>32) & genMask }

func makeHandle(slot uint32, gen uint32) Handle {
	return Handle(uint64(gen&genMask)<<32 | uint64(slot+1))
}

// chunkSize is the number of records per full-size slab chunk. Chunks are
// allocated whole and never move, so a *T returned by Alloc or Get stays
// valid until the slot is freed — no matter how much the slab grows
// afterwards.
//
// The first chunkSize slots are spread over geometrically growing chunks of
// firstChunk, firstChunk, 2*firstChunk, ... chunkSize/2 rows, so a store
// that holds a few dozen records (one of the small worlds a sweep builds by
// the thousand) does not allocate and zero a thousand rows on its first
// insert. From slot chunkSize on every chunk is full size: the layout
// of a large store is what it would be without the small chunks.
const (
	chunkBits  = 10
	chunkSize  = 1 << chunkBits
	firstBits  = 3
	firstChunk = 1 << firstBits
	// smallChunks is how many chunks the first chunkSize slots occupy.
	smallChunks = chunkBits - firstBits + 1
)

// locate maps a slot to its chunk and its offset within the chunk. Small
// chunk k >= 1 starts at slot firstChunk<<(k-1), a power of two, so the
// slot's bit length names the chunk.
func locate(slot uint32) (chunk, off uint32) {
	if slot >= chunkSize {
		return slot/chunkSize + smallChunks - 1, slot % chunkSize
	}
	b := uint32(bits.Len32(slot | (firstChunk - 1)))  // firstBits for chunk 0, one more per chunk
	start := uint32(1) << (b - 1) &^ (firstChunk - 1) // 0 for chunk 0
	return b - firstBits, slot - start
}

// Slab is an arena of T records with a generational free-list. The zero
// value is an empty slab.
type Slab[T any] struct {
	chunks [][]T
	// gens holds one generation counter per slot. Odd = live, even =
	// free; Alloc and Free each advance the counter, so a Handle minted
	// for a previous occupancy of the slot fails validation forever
	// (modulo 24-bit wrap, ~8M reuse cycles of one slot).
	gens []uint32
	free []uint32
	live int
}

// NewSlab returns an empty slab.
func NewSlab[T any]() *Slab[T] { return &Slab[T]{} }

// Alloc returns a handle to a zeroed record. The pointer stays valid until
// Free is called on the handle.
func (s *Slab[T]) Alloc() (Handle, *T) {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = uint32(len(s.gens))
		s.gens = append(s.gens, 0)
	}
	k, off := locate(slot)
	if int(k) == len(s.chunks) {
		// A small chunk after the first starts at the slot equal to its
		// size: 8 rows from slot 8, 16 from 16, ... 512 from 512.
		rows := min(max(slot, firstChunk), chunkSize)
		s.chunks = append(s.chunks, make([]T, rows))
	}
	s.gens[slot]++ // even -> odd: live
	s.live++
	p := &s.chunks[k][off]
	var zero T
	*p = zero
	return makeHandle(slot, s.gens[slot]), p
}

// Get resolves a handle to its record, or nil if the handle is zero, stale
// (the slot was freed or recycled since the handle was minted), or out of
// range. Generation validation makes Get the staleness check: callers that
// previously compared stored pointers to detect superseded records now
// just test Get for nil.
func (s *Slab[T]) Get(h Handle) *T {
	if h == 0 {
		return nil
	}
	slot := h.slot()
	if int(slot) >= len(s.gens) {
		return nil
	}
	g := s.gens[slot]
	if g&1 == 0 || g&genMask != h.gen() {
		return nil
	}
	return s.at(slot)
}

// at returns the record in an allocated slot.
func (s *Slab[T]) at(slot uint32) *T {
	k, off := locate(slot)
	return &s.chunks[k][off]
}

// Free releases the slot behind a handle, zeroing the record so any heap
// references it held (strings, slices) are released to the GC. It reports
// whether the handle was live; freeing a stale or zero handle is a no-op.
func (s *Slab[T]) Free(h Handle) bool {
	if s.Get(h) == nil {
		return false
	}
	slot := h.slot()
	var zero T
	*s.at(slot) = zero
	s.gens[slot]++ // odd -> even: free
	s.live--
	// The free list grows to the slot count at once, so the slab's memory
	// follows its peak population and not how far it later drains: the
	// day soak requires footprints flat across its final windows.
	if len(s.free) == cap(s.free) {
		s.free = slices.Grow(s.free, cap(s.gens)-len(s.free))
	}
	s.free = append(s.free, slot)
	return true
}

// Len returns the number of live records.
func (s *Slab[T]) Len() int { return s.live }

// Cap returns the total slot count across all chunks ever allocated.
func (s *Slab[T]) Cap() int { return len(s.gens) }

// FreeLen returns the current free-list depth.
func (s *Slab[T]) FreeLen() int { return len(s.free) }

// Bytes returns the memory the slab holds: every chunk row, live or free,
// plus the generation and free-list arrays at their capacity. It is what a
// node's Footprint charges for a store, and what the heap shows for it.
func (s *Slab[T]) Bytes() int {
	var zero T
	rows := 0
	for _, c := range s.chunks {
		rows += len(c)
	}
	return rows*int(unsafe.Sizeof(zero)) + 4*(cap(s.gens)+cap(s.free))
}

// Range calls fn for every live record in slot order until fn returns
// false. The order depends on which slots are occupied and on nothing else —
// not on a hash, a table capacity or the order keys went into an Index — so
// it is the walk for anything that emits messages or picks one record among
// several. fn must not Alloc or Free.
func (s *Slab[T]) Range(fn func(Handle, *T) bool) {
	for slot, g := range s.gens {
		if g&1 != 0 && !fn(makeHandle(uint32(slot), g), s.at(uint32(slot))) {
			return
		}
	}
}

// Imbalance returns the number of slots that are neither live nor on the
// free-list. In a healthy slab every slot is one or the other; a difference
// means slots were lost inside the slab itself, which is distinct from a
// node forgetting to Free a handle (see RowIndex.Audit).
func (s *Slab[T]) Imbalance() int {
	d := len(s.gens) - s.live - len(s.free)
	return max(d, -d)
}

// Sharded is a Slab behind the constructor and Alloc of the retired
// sharded store.
//
// Deprecated: use Slab. The shard count and Alloc's shard argument are
// accepted and ignored; every record lives in the one embedded Slab.
type Sharded[T any] struct {
	Slab[T]
}

// NewSharded returns an empty store; the shard count is ignored.
func NewSharded[T any](int) *Sharded[T] { return &Sharded[T]{} }

// Alloc allocates a zeroed record; the shard argument is ignored.
func (s *Sharded[T]) Alloc(int) (Handle, *T) { return s.Slab.Alloc() }
