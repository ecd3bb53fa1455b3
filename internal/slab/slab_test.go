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

// indexModel drives an Index and a reference map through the same history
// and fails on the first answer that differs.
type indexModel struct {
	t   *testing.T
	x   *Index[uint32]
	ref map[uint32]Handle
	ops int
}

func newIndexModel(t *testing.T) *indexModel {
	return &indexModel{t: t, x: NewIndex[uint32](HashUint32), ref: map[uint32]Handle{}}
}

func (m *indexModel) put(k uint32, h Handle) {
	m.ops++
	m.x.Put(k, h)
	m.ref[k] = h
	m.lenAgrees()
}

func (m *indexModel) del(k uint32) {
	m.ops++
	_, want := m.ref[k]
	if got := m.x.Delete(k); got != want {
		m.t.Fatalf("op %d: Delete(%d) = %v, want %v", m.ops, k, got, want)
	}
	delete(m.ref, k)
	m.lenAgrees()
}

func (m *indexModel) get(k uint32) {
	m.ops++
	if got := m.x.Get(k); got != m.ref[k] {
		m.t.Fatalf("op %d: Get(%d) = %x, want %x", m.ops, k, got, m.ref[k])
	}
}

func (m *indexModel) lenAgrees() {
	if m.x.Len() != len(m.ref) {
		m.t.Fatalf("op %d: Len = %d, want %d", m.ops, m.x.Len(), len(m.ref))
	}
}

// sweep requires every key of the model to resolve and Range to visit
// exactly the model's entries.
func (m *indexModel) sweep() {
	for k, want := range m.ref {
		if got := m.x.Get(k); got != want {
			m.t.Fatalf("after op %d: Get(%d) = %x, want %x", m.ops, k, got, want)
		}
	}
	seen := 0
	m.x.Range(func(k uint32, h Handle) bool {
		if want, ok := m.ref[k]; !ok || want != h {
			m.t.Fatalf("after op %d: Range yielded (%d,%x), model has %x (present %v)", m.ops, k, h, want, ok)
		}
		seen++
		return true
	})
	if seen != len(m.ref) {
		m.t.Fatalf("after op %d: Range visited %d entries, want %d", m.ops, seen, len(m.ref))
	}
}

// TestIndexAgainstMap drives the open-addressing table and a reference map
// through the same randomized Put/Delete/Get history and requires
// identical answers throughout, catching backward-shift deletion bugs. Three
// acts: heavy collision and reuse in a small table; a population that grows
// the table six steps past the taper, where capacity stops being a power of
// two; and deletions out of a cluster built across the end of that table,
// the one place the wrap-around distance arithmetic decides anything.
func TestIndexAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newIndexModel(t)
	random := func(ops, keySpace, putOf10 int) {
		for i := 0; i < ops; i++ {
			k := uint32(rng.Intn(keySpace))
			switch r := rng.Intn(10); {
			case r < putOf10:
				m.put(k, Handle(rng.Uint64()|1)) // non-zero
			case r < putOf10+(10-putOf10)/2:
				m.del(k)
			default:
				m.get(k)
			}
		}
	}
	random(200000, 512, 4) // small space forces heavy collision + reuse
	m.sweep()

	steps, last := 0, m.x.Cap()
	for len(m.ref) < 24000 {
		random(1000, 40000, 8)
		if c := m.x.Cap(); c != last {
			if last >= indexTaper {
				steps++
				if c != last+last/2 {
					t.Fatalf("table grew %d -> %d cells above the taper", last, c)
				}
			}
			last = c
		}
	}
	if steps < 6 {
		t.Fatalf("script crossed %d growth steps above the taper, want >= 6", steps)
	}
	random(200000, 40000, 4)
	m.sweep()

	// Build a cluster across the end of the table from keys homed in its
	// last cells, then take it apart in random order.
	c := uint64(m.x.Cap())
	if c&(c-1) == 0 {
		t.Fatalf("capacity %d is a power of two; the wrap act needs one that is not", c)
	}
	var cluster []uint32
	for k := uint32(1 << 20); len(cluster) < 24; k++ {
		if m.x.home(k) >= c-4 {
			cluster = append(cluster, k)
			m.put(k, Handle(k))
		}
	}
	wrapped := 0
	for i := uint64(0); m.x.vals[i] != 0; i++ {
		if m.x.home(m.x.keys[i]) >= c-4 {
			wrapped++
		}
	}
	if uint64(m.x.Cap()) != c || wrapped < 16 {
		t.Fatalf("no cluster across the end of the table: %d entries wrapped, capacity %d -> %d", wrapped, c, m.x.Cap())
	}
	rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })
	for _, k := range cluster {
		m.del(k)
		m.sweep() // every survivor, wrapped or not, still resolves
	}
}

// TestIndexLoadBand grows a table one entry at a time and pins the growth
// schedule: 16, 32 … 4,096 cells by doubling — what a small world's tables
// have always been — then by half, so that from the first growth on the
// table is never emptier than 3/8 below the taper and 1/2 above it (0.49:
// capacity rounds down), and never fuller than 3/4.
func TestIndexLoadBand(t *testing.T) {
	x := NewIndex[uint32](HashUint32)
	var caps []int
	for n := 1; n <= 300000; n++ {
		x.Put(uint32(n), Handle(n))
		c := x.Cap()
		if len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
		lo := 0.375
		if c > indexTaper {
			lo = 0.49
		}
		if c == indexMinSize {
			lo = 0 // a table starts empty
		}
		if load := float64(n) / float64(c); load < lo || load > 0.75 {
			t.Fatalf("%d entries in %d cells: load %.4f outside [%.3f, 0.75]", n, c, load, lo)
		}
	}
	for i, want := 0, indexMinSize; want <= indexTaper; i, want = i+1, 2*want {
		if caps[i] != want {
			t.Fatalf("capacities %v: step %d is %d cells, want %d", caps[:i+1], i, caps[i], want)
		}
	}
	if last := caps[len(caps)-1]; last&(last-1) == 0 {
		t.Fatalf("capacities %v: expected growth by half past %d", caps, indexTaper)
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
// a fresh row must read zero, the books (Len, per-shard Audit, Bytes) must
// balance after every step, and Range must walk the survivors in row order.
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
	// Range: exactly the live rows, each once, in (shard, slot) order.
	seen, prev := 0, Handle(0)
	s.Range(func(h Handle, p *row) bool {
		if want, ok := live[h]; !ok || p.val != want || s.Get(h) != p {
			t.Fatalf("Range yielded %x -> %+v, model has %d (live %v)", h, *p, want, ok)
		}
		if seen > 0 && (h.Shard() < prev.Shard() || h.Shard() == prev.Shard() && h.slot() <= prev.slot()) {
			t.Fatalf("Range yielded %x after %x: not in (shard, slot) order", h, prev)
		}
		seen, prev = seen+1, h
		return true
	})
	if seen != len(live) {
		t.Fatalf("Range visited %d rows, model has %d", seen, len(live))
	}
	stopped := 0
	s.Range(func(Handle, *row) bool { stopped++; return false })
	if stopped != 1 {
		t.Fatalf("Range went on for %d rows after fn returned false", stopped)
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
