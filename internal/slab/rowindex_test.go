package slab

import (
	"math/rand"
	"testing"
	"unsafe"
)

// modelRow is a row entered under the key it carries.
type modelRow struct {
	key  uint32
	data [3]uint64
}

// TestIndexBoundAgainstModel drives a RowIndex over a four-shard slab and a
// model — the live row each key was entered for, plus the keys whose rows
// were freed behind the index's back — through a random history of inserts,
// clean deletes, leaked frees and lookups. Freed slots are re-allocated under
// other keys all the time, so a lookup that trusted a row reference without
// checking the slot and the row's key would return another subscriber's row.
func TestIndexBoundAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := NewSharded[modelRow](4)
	idx := NewRowIndex(rows, HashUint32, func(k uint32, r *modelRow) bool { return r.key == k })
	live := map[uint32]Handle{}
	stale := map[uint32]bool{} // entered, then freed without Delete
	check := func(op int) {
		if got, want := idx.Len(), len(live)+len(stale); got != want {
			t.Fatalf("op %d: Len = %d, want %d", op, got, want)
		}
		if got := idx.Audit(); got != len(stale) {
			t.Fatalf("op %d: Audit = %d, want %d stale entries", op, got, len(stale))
		}
		if got := idx.Stale(); got != len(stale) {
			t.Fatalf("op %d: Stale = %d, want %d", op, got, len(stale))
		}
	}
	for op := 0; op < 200000; op++ {
		k := uint32(rng.Intn(3000))
		h, inLive := live[k]
		switch r := rng.Intn(10); {
		case r < 4 && !inLive:
			h, row := rows.Alloc(int(k % 4))
			row.key = k
			idx.Put(k, h)
			live[k] = h
			delete(stale, k)
		case r < 6 && inLive:
			idx.Delete(k)
			rows.Free(h)
			delete(live, k)
		case r < 7 && inLive:
			rows.Free(h) // the entry stays: a leaked reference
			delete(live, k)
			stale[k] = true
		default:
			gh, row := idx.Get(k)
			if gh != h || (row == nil) != !inLive {
				t.Fatalf("op %d: Get(%d) = (%x, %v), want (%x, live %v)", op, k, gh, row != nil, h, inLive)
			}
			if row != nil && (row != rows.Get(h) || row.key != k) {
				t.Fatalf("op %d: Get(%d) returned the row of key %d", op, k, row.key)
			}
		}
		if op%10000 == 0 {
			check(op)
		}
	}
	check(-1)
	for k, h := range live {
		if gh, row := idx.Get(k); gh != h || row == nil || row.key != k {
			t.Fatalf("sweep: Get(%d) = (%x, %v), want %x", k, gh, row, h)
		}
	}
	for k := range stale {
		if gh, row := idx.Get(k); gh != 0 || row != nil {
			t.Fatalf("sweep: stale Get(%d) = (%x, %v), want (0, nil)", k, gh, row)
		}
	}
}

// TestIndexCellWidths pins what a cell costs: a RowIndex cell is the key plus
// a 4-byte row reference, an unbound Index cell the key plus an 8-byte Handle.
func TestIndexCellWidths(t *testing.T) {
	rows := NewSharded[modelRow](2)
	h, _ := rows.Alloc(1)
	cell := func(bytes, cells int) int { return bytes / cells }
	u32 := NewRowIndex(rows, HashUint32, func(uint32, *modelRow) bool { return true })
	u64 := NewRowIndex(rows, HashUint64, func(uint64, *modelRow) bool { return true })
	b8 := NewRowIndex(rows, HashBytes8, func([8]byte, *modelRow) bool { return true })
	str := NewRowIndex(rows, HashString, func(string, *modelRow) bool { return true })
	u32.Put(1, h)
	u64.Put(1, h)
	b8.Put([8]byte{1}, h)
	str.Put("MS1", h)
	for _, c := range []struct {
		name       string
		bytes, cap int
		want       int
	}{
		{"RowIndex[uint32]", u32.Bytes(), u32.Cap(), 4 + 4},
		{"RowIndex[uint64]", u64.Bytes(), u64.Cap(), 8 + 4},
		{"RowIndex[[8]byte]", b8.Bytes(), b8.Cap(), 8 + 4},
		{"RowIndex[string]", str.Bytes(), str.Cap(), int(unsafe.Sizeof("")) + 4},
	} {
		if got := cell(c.bytes, c.cap); got != c.want {
			t.Errorf("%s: %d B a cell, want %d", c.name, got, c.want)
		}
	}
	x := NewIndex[uint32](HashUint32)
	x.Put(1, h)
	if got := cell(x.Bytes(), x.Cap()); got != 4+8 {
		t.Errorf("Index[uint32]: %d B a cell, want 12", got)
	}
}

// TestIndexRowReferenceLimit checks the limit a 32-bit row reference puts on
// a shard: the last slot it can name is entered, the next one is refused.
func TestIndexRowReferenceLimit(t *testing.T) {
	rows := NewSharded[modelRow](MaxShards)
	idx := NewRowIndex(rows, HashUint32, func(uint32, *modelRow) bool { return true })
	idx.Put(1, makeHandle(MaxShards-1, maxRefSlot-1, 1))
	if got := idx.refs.Get(1); got != (MaxShards-1)<<refSlotBits|maxRefSlot {
		t.Fatalf("row reference %x, want shard %d slot+1 %d", got, MaxShards-1, maxRefSlot)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put accepted slot 2^24-1, which no row reference names")
		}
	}()
	idx.Put(2, makeHandle(0, maxRefSlot, 1))
}
