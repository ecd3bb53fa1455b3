package slab

import (
	"math/rand"
	"testing"
	"unsafe"
)

type rec struct {
	id  uint64
	pad [24]byte
}

func TestSlabAllocFreeReuse(t *testing.T) {
	s := NewSlab[rec]()
	h1, p1 := s.Alloc()
	p1.id = 42
	if got := s.Get(h1); got == nil || got.id != 42 {
		t.Fatalf("Get after Alloc = %v, want id 42", got)
	}
	if s.Len() != 1 || s.Cap() != 1 || s.FreeLen() != 0 {
		t.Fatalf("len/cap/free = %d/%d/%d, want 1/1/0", s.Len(), s.Cap(), s.FreeLen())
	}
	if !s.Free(h1) {
		t.Fatal("Free(live handle) = false")
	}
	if s.Get(h1) != nil {
		t.Fatal("Get after Free should be nil")
	}
	if s.Free(h1) {
		t.Fatal("double Free should report false")
	}
	// Reuse must recycle the slot but invalidate the old handle.
	h2, p2 := s.Alloc()
	if h2 == h1 {
		t.Fatal("recycled slot must mint a new generation")
	}
	if p2.id != 0 {
		t.Fatal("recycled record not zeroed")
	}
	if s.Get(h1) != nil {
		t.Fatal("stale handle resolved after slot reuse")
	}
	if s.Cap() != 1 {
		t.Fatalf("Cap = %d after reuse, want 1", s.Cap())
	}
}

func TestSlabZeroHandle(t *testing.T) {
	s := NewSlab[rec]()
	var zero Handle
	if !zero.IsZero() {
		t.Fatal("zero Handle not IsZero")
	}
	if s.Get(0) != nil || s.Free(0) {
		t.Fatal("zero handle must not resolve or free")
	}
}

// TestSlabStablePointers fills a slab one record at a time across every
// chunk boundary (31/32, 63/64, ... 1023/1024, 2047/2048, ...) and checks at
// each boundary, and again at the end, that no earlier record moved, every
// handle still resolves to the pointer Alloc returned, and no two slots
// share storage.
func TestSlabStablePointers(t *testing.T) {
	s := NewSlab[rec]()
	const n = 10 * chunkSize
	handles := make([]Handle, 0, n)
	ptrs := make([]*rec, 0, n)
	check := func() {
		t.Helper()
		for i, h := range handles {
			if got := s.Get(h); got != ptrs[i] {
				t.Fatalf("after %d allocs record %d moved: Get=%p want %p", len(handles), i, got, ptrs[i])
			}
			if ptrs[i].id != uint64(i) {
				t.Fatalf("after %d allocs record %d corrupted: id=%d", len(handles), i, ptrs[i].id)
			}
		}
	}
	boundary := map[int]bool{}
	for b := firstChunk; b < chunkSize; b *= 2 {
		boundary[b] = true
	}
	for b := chunkSize; b < n; b += chunkSize {
		boundary[b] = true
	}
	for i := 0; i < n; i++ {
		h, p := s.Alloc()
		p.id = uint64(i)
		handles = append(handles, h)
		ptrs = append(ptrs, p)
		// i is the first slot of a chunk: i-1 | i straddles the boundary.
		if boundary[i] {
			check()
		}
	}
	check()
	if s.Cap() != n {
		t.Fatalf("Cap = %d after %d allocs", s.Cap(), n)
	}
}

// TestSlabSmallStoreStaysSmall is the reason for the geometric first
// chunks: a 40-record population spread over an 8-shard store occupies one
// 32-row chunk per shard, not a 1,024-row chunk each.
func TestSlabSmallStoreStaysSmall(t *testing.T) {
	s := NewSharded[rec](8)
	for i := 0; i < 40; i++ {
		s.Alloc(i % 8)
	}
	rows := 0
	for i := range s.shards {
		for _, c := range s.shards[i].chunks {
			rows += len(c)
		}
	}
	if rows > 8*firstChunk {
		t.Fatalf("40 records in 8 shards hold %d rows, want <= %d", rows, 8*firstChunk)
	}
	// Past the small chunks the layout is the flat one: slot s lives in
	// chunk s/chunkSize of the full-size run.
	for _, slot := range []uint32{chunkSize, chunkSize + 1, 5*chunkSize - 1, 5 * chunkSize} {
		k, off := locate(slot)
		if k != slot/chunkSize+smallChunks-1 || off != slot%chunkSize {
			t.Fatalf("locate(%d) = chunk %d offset %d", slot, k, off)
		}
	}
}

func TestShardedRouting(t *testing.T) {
	s := NewSharded[rec](8)
	type entry struct {
		h Handle
		v uint64
	}
	var entries []entry
	for i := 0; i < 1000; i++ {
		shard := i % 8
		h, p := s.Alloc(shard)
		if h.Shard() != shard {
			t.Fatalf("handle shard = %d, want %d", h.Shard(), shard)
		}
		p.id = uint64(i)
		entries = append(entries, entry{h, uint64(i)})
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	for _, e := range entries {
		if got := s.Get(e.h); got == nil || got.id != e.v {
			t.Fatalf("Get(%x) = %v, want id %d", e.h, got, e.v)
		}
	}
	for _, e := range entries {
		if !s.Free(e.h) {
			t.Fatalf("Free(%x) = false", e.h)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after free-all = %d, want 0", s.Len())
	}
	for _, a := range s.Audit() {
		if a.Imbalance() != 0 {
			t.Fatalf("shard %d imbalance %d: %+v", a.Shard, a.Imbalance(), a)
		}
		if a.Live != 0 || a.Free != a.Cap {
			t.Fatalf("shard %d free-list did not fully recycle: %+v", a.Shard, a)
		}
	}
}

// TestIndexAgainstMap drives the open-addressing table and a reference map
// through the same randomized Put/Delete/Get history and requires
// identical answers throughout, catching backward-shift deletion bugs.
func TestIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := NewIndex[uint32](HashUint32)
	ref := map[uint32]Handle{}
	const keySpace = 512 // small space forces heavy collision + reuse
	for op := 0; op < 200000; op++ {
		k := uint32(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0:
			h := Handle(rng.Uint64() | 1) // non-zero
			x.Put(k, h)
			ref[k] = h
		case 1:
			got := x.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 2:
			got := x.Get(k)
			if got != ref[k] {
				t.Fatalf("op %d: Get(%d) = %x, want %x", op, k, got, ref[k])
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, x.Len(), len(ref))
		}
	}
	// Final sweep: every surviving key must still resolve.
	for k, want := range ref {
		if got := x.Get(k); got != want {
			t.Fatalf("final Get(%d) = %x, want %x", k, got, want)
		}
	}
	seen := 0
	x.Range(func(k uint32, h Handle) bool {
		if ref[k] != h {
			t.Fatalf("Range yielded (%d,%x), want %x", k, h, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", seen, len(ref))
	}
}

func TestIndexStringKeys(t *testing.T) {
	x := NewIndex[string](HashString)
	h1, h2 := Handle(1), Handle(2)
	x.Put("4669210000000001", h1)
	x.Put("4669210000000002", h2)
	if x.Get("4669210000000001") != h1 || x.Get("4669210000000002") != h2 {
		t.Fatal("string index lookup failed")
	}
	if x.Get("missing") != 0 {
		t.Fatal("missing key should return zero handle")
	}
	if !x.Delete("4669210000000001") || x.Get("4669210000000001") != 0 {
		t.Fatal("delete failed")
	}
}

func TestSymsRoundTrip(t *testing.T) {
	var s Syms[string]
	if s.ID("") != 0 {
		t.Fatal(`ID("") must be 0`)
	}
	if s.Val(0) != "" {
		t.Fatal("Val(0) must be zero value")
	}
	a := s.ID("VLR-1")
	b := s.ID("HLR")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad symbols: %d %d", a, b)
	}
	if s.ID("VLR-1") != a {
		t.Fatal("re-intern changed symbol")
	}
	if s.Val(a) != "VLR-1" || s.Val(b) != "HLR" {
		t.Fatal("Val round-trip failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if s.Val(99) != "" {
		t.Fatal("out-of-range symbol must return zero value")
	}
}

func TestHandleFields(t *testing.T) {
	h := makeHandle(7, 12345, 0x00abcdef)
	if h.Shard() != 7 || h.slot() != 12345 || h.gen() != 0x00abcdef {
		t.Fatalf("field round-trip failed: shard=%d slot=%d gen=%x",
			h.Shard(), h.slot(), h.gen())
	}
}

// TestShardedAgainstModel drives a sharded slab with random Alloc, Free and
// Get — through live handles, handles retired by Free (some since recycled by
// a later occupant of the slot), handles moved to another shard, and handles
// that were never issued — against a map from live handle to the value stored
// there. A stale or foreign handle must resolve to nothing and free nothing,
// a fresh row must read zero, and the books (Len, per-shard Audit, Bytes)
// must balance after every step.
func TestShardedAgainstModel(t *testing.T) {
	type row struct {
		val  uint64
		note string // a pointer field: Free must clear it
	}
	const shards = 4
	rng := rand.New(rand.NewSource(11))
	s := NewSharded[row](shards)
	live := map[Handle]uint64{}
	var order, retired []Handle // order: live handles, for picking one at random

	pick := func(hs []Handle) Handle { return hs[rng.Intn(len(hs))] }
	// mangle turns a real handle into one that must not resolve.
	mangle := func(h Handle) Handle {
		switch rng.Intn(3) {
		case 0: // same slot and generation, another shard
			return makeHandle((h.Shard()+1+rng.Intn(shards-1))%shards, h.slot(), h.gen())
		case 1: // same shard and slot, a generation not in use there
			return makeHandle(h.Shard(), h.slot(), h.gen()+2*uint32(1+rng.Intn(4)))
		default: // a slot far past anything allocated
			return makeHandle(h.Shard(), h.slot()+1<<20, h.gen())
		}
	}
	for op := 0; op < 200000; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(order) == 0:
			shard := rng.Intn(shards)
			h, p := s.Alloc(shard)
			if *p != (row{}) {
				t.Fatalf("op %d: Alloc returned a dirty row %+v", op, *p)
			}
			if _, dup := live[h]; dup || h.IsZero() || h.Shard() != shard {
				t.Fatalf("op %d: Alloc(%d) returned handle %x (duplicate %v)", op, shard, h, dup)
			}
			p.val, p.note = rng.Uint64(), "x"
			live[h] = p.val
			order = append(order, h)
		case r < 7:
			i := rng.Intn(len(order))
			h := order[i]
			if !s.Free(h) {
				t.Fatalf("op %d: Free(%x) of a live handle reported false", op, h)
			}
			delete(live, h)
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			retired = append(retired, h)
		case r < 8:
			h := pick(order)
			if p := s.Get(h); p == nil || p.val != live[h] {
				t.Fatalf("op %d: Get(%x) = %v, want value %d", op, h, p, live[h])
			}
		default:
			h := mangle(pick(order))
			if len(retired) > 0 && rng.Intn(2) == 0 {
				h = pick(retired)
			}
			if _, isLive := live[h]; isLive {
				continue // a mangled generation can land on nothing live, but be safe
			}
			if p := s.Get(h); p != nil {
				t.Fatalf("op %d: stale handle %x resolved to %+v", op, h, *p)
			}
			if s.Free(h) {
				t.Fatalf("op %d: stale handle %x freed a row", op, h)
			}
		}
		if s.Len() != len(live) {
			t.Fatalf("op %d: Len = %d, want %d", op, s.Len(), len(live))
		}
	}
	perShard := make([]int, shards)
	for h, want := range live {
		if p := s.Get(h); p == nil || p.val != want {
			t.Fatalf("final Get(%x) = %v, want value %d", h, p, want)
		}
		perShard[h.Shard()]++
	}
	rows := 0
	for _, a := range s.Audit() {
		if a.Imbalance() != 0 || a.Live != perShard[a.Shard] {
			t.Fatalf("shard %d audit %+v, model has %d live", a.Shard, a, perShard[a.Shard])
		}
		rows += a.Cap
	}
	if min := rows * int(unsafe.Sizeof(row{})); s.Bytes() < min {
		t.Fatalf("Bytes = %d, below the %d bytes of %d allocated rows", s.Bytes(), min, rows)
	}
}
