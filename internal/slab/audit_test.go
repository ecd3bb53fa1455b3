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
	byID   *Index[uint32]
	byName *Index[uint64]
	hs     []Handle // hs[i] holds id i+1
}

func newAuditFixture() *auditFixture {
	x := &auditFixture{
		s:      NewSharded[auditRow](4),
		byID:   NewIndex[uint32](HashUint32),
		byName: NewIndex[uint64](HashUint64),
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

func (x *auditFixture) audit() int {
	return Audit(x.s, x.byID, func(k uint32, r *auditRow) bool { return r.id == k })
}

func (x *auditFixture) stale() int {
	return Stale(x.s, x.byName, func(k uint64, r *auditRow) bool { return r.name == k })
}

// TestAuditPlantedFaults plants each kind of fault the audits exist for in
// an otherwise consistent slab and its indexes, and requires every reading
// the fault can reach to be non-zero. Stale sees only entries, so a row
// missing from an index or a lost slot is Audit's to find.
func TestAuditPlantedFaults(t *testing.T) {
	for _, f := range []struct {
		fault string
		plant func(x *auditFixture) []int // the readings that must be non-zero
	}{
		{"an entry whose row was freed", func(x *auditFixture) []int {
			x.s.Free(x.hs[7])
			return []int{x.audit(), x.stale()}
		}},
		{"an entry whose row carries another key", func(x *auditFixture) []int {
			a, b := x.hs[0], x.hs[1]
			x.byID.Put(1, b)
			x.byID.Put(2, a)
			x.byName.Put(x.s.Get(a).name, b)
			x.byName.Put(x.s.Get(b).name, a)
			return []int{x.audit(), x.stale()}
		}},
		{"a live row with no entry", func(x *auditFixture) []int {
			x.s.Alloc(2)
			return []int{x.audit()}
		}},
		{"one row under two owning keys", func(x *auditFixture) []int {
			x.byID.Put(1000, x.hs[0])
			// A match that accepts both keys still leaves one more entry
			// than live rows in the shard.
			return []int{x.audit(), Audit(x.s, x.byID, func(uint32, *auditRow) bool { return true })}
		}},
		{"a slot missing from the free list", func(x *auditFixture) []int {
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
			for i, n := range f.plant(x) {
				if n == 0 {
					t.Errorf("reading %d is 0", i)
				}
			}
		})
	}
}
