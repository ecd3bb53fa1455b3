package slab

import "testing"

// auditRow carries two keys: id, under which the owning index enters the
// row, and name, under which a further index does.
type auditRow struct {
	id   uint32
	name uint64
}

// auditFixture is a four-shard slab of rows with both indexes over it.
type auditFixture struct {
	s      *Sharded[auditRow]
	byID   *RowIndex[uint32, auditRow]
	byName *RowIndex[uint64, auditRow]
	hs     []Handle // hs[i] holds id i+1
}

func newAuditFixture() *auditFixture {
	s := NewSharded[auditRow](4)
	x := &auditFixture{
		s:      s,
		byID:   NewRowIndex(s, HashUint32, func(k uint32, r *auditRow) bool { return r.id == k }),
		byName: NewRowIndex(s, HashUint64, func(k uint64, r *auditRow) bool { return r.name == k }),
	}
	for id := uint32(1); id <= 100; id++ {
		h, r := x.s.Alloc(int(id % 4))
		r.id, r.name = id, uint64(id)<<32|7
		x.byID.Put(r.id, h)
		x.byName.Put(r.name, h)
		x.hs = append(x.hs, h)
	}
	return x
}

func (x *auditFixture) audit() int { return x.byID.Audit() }

func (x *auditFixture) stale() int { return x.byName.Stale() }

// absent requires every key to look up as (0, nil) in idx and returns how
// many entries idx still holds for them: a planted entry must stay planted
// and still be refused.
func absent[K comparable](t *testing.T, idx *RowIndex[K, auditRow], keys ...K) int {
	t.Helper()
	held := 0
	for _, k := range keys {
		if h, r := idx.Get(k); h != 0 || r != nil {
			t.Errorf("Get(%v) = (%x, %+v), want (0, nil)", k, h, r)
		}
		if idx.refs.Get(k) != 0 {
			held++
		}
	}
	return held
}

// TestAuditPlantedFaults plants each kind of fault the audits exist for in
// an otherwise consistent slab and its indexes, and requires every reading
// the fault can reach to be non-zero. Stale sees only entries, so a row
// missing from an index or a lost slot is Audit's to find. A planted entry
// stays in its table, and a lookup under its key still answers (0, nil).
func TestAuditPlantedFaults(t *testing.T) {
	for _, f := range []struct {
		fault string
		plant func(t *testing.T, x *auditFixture) []int // the readings that must be non-zero
	}{
		{"an entry whose row was freed", func(t *testing.T, x *auditFixture) []int {
			x.s.Free(x.hs[7])
			return []int{x.audit(), x.stale(), absent(t, x.byID, 8), absent(t, x.byName, 8<<32|7)}
		}},
		{"an entry under the zero key whose row was freed", func(t *testing.T, x *auditFixture) []int {
			// Free zeroes a row, so the freed row carries the zero key:
			// only the slot's liveness refuses it.
			h, _ := x.s.Alloc(3)
			x.byID.Put(0, h)
			x.byName.Put(0, h)
			x.s.Free(h)
			return []int{x.audit(), x.stale(), absent(t, x.byID, 0), absent(t, x.byName, 0)}
		}},
		{"an entry whose slot was re-allocated under another key", func(t *testing.T, x *auditFixture) []int {
			x.s.Free(x.hs[7])
			h, r := x.s.Alloc(x.hs[7].Shard()) // the slot just freed
			r.id, r.name = 1000, 1000<<32|7
			if h.slot() != x.hs[7].slot() {
				t.Fatalf("Alloc took slot %d, want the freed slot %d", h.slot(), x.hs[7].slot())
			}
			return []int{x.audit(), x.stale(), absent(t, x.byID, 8), absent(t, x.byName, 8<<32|7)}
		}},
		{"an entry whose row carries another key", func(t *testing.T, x *auditFixture) []int {
			a, b := x.hs[0], x.hs[1]
			x.byID.Put(1, b)
			x.byID.Put(2, a)
			x.byName.Put(x.s.Get(a).name, b)
			x.byName.Put(x.s.Get(b).name, a)
			return []int{x.audit(), x.stale(), absent(t, x.byID, 1, 2), absent(t, x.byName, 1<<32|7, 2<<32|7)}
		}},
		{"a live row with no entry", func(t *testing.T, x *auditFixture) []int {
			x.s.Alloc(2)
			return []int{x.audit()}
		}},
		{"one row under two owning keys", func(t *testing.T, x *auditFixture) []int {
			x.byID.Put(1000, x.hs[0])
			// A match that accepts both keys still leaves one more entry
			// than live rows in the shard.
			lax := &RowIndex[uint32, auditRow]{refs: x.byID.refs, rows: x.s, match: func(uint32, *auditRow) bool { return true }}
			return []int{x.audit(), lax.Audit(), absent(t, x.byID, 1000)}
		}},
		{"a slot missing from the free list", func(t *testing.T, x *auditFixture) []int {
			h := x.hs[5]
			x.byID.Delete(x.s.Get(h).id)
			x.byName.Delete(x.s.Get(h).name)
			x.s.Free(h)
			sh := &x.s.shards[h.Shard()]
			sh.free = sh.free[:len(sh.free)-1]
			return []int{x.audit(), x.s.Imbalance()}
		}},
	} {
		t.Run(f.fault, func(t *testing.T) {
			x := newAuditFixture()
			if a, s := x.audit(), x.stale(); a != 0 || s != 0 {
				t.Fatalf("consistent slab: Audit = %d, Stale = %d, want 0", a, s)
			}
			for i, n := range f.plant(t, x) {
				if n == 0 {
					t.Errorf("reading %d is 0", i)
				}
			}
		})
	}
}
