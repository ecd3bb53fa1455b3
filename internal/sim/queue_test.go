package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// TestQueueMatchesSortedModel drives the heap and a sort.Slice-ordered
// reference with the same 10^5 random pushes and pops, in bursts so the
// depth wanders between empty and a few thousand. Timestamps come from a
// handful of values (one negative) so most comparisons fall through to the
// key, and keys span the full 64 bits (a high context index sets the top
// bit).
func TestQueueMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var model []event
	sorted := true
	used := map[uint64]bool{}
	var got event
	pop := func(op int) {
		if !sorted {
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
			sorted = true
		}
		want := model[0]
		model = model[1:]
		if at, seq, ok := q.peekKey(); !ok || at != want.at || seq != want.seq {
			t.Fatalf("op %d: peekKey = (%v, %#x, %v), want (%v, %#x)", op, at, seq, ok, want.at, want.seq)
		}
		if !q.pop(&got) || got.at != want.at || got.seq != want.seq || got.ctx != want.ctx {
			t.Fatalf("op %d: pop = (%v, %#x, ctx %d), want (%v, %#x, ctx %d)",
				op, got.at, got.seq, got.ctx, want.at, want.seq, want.ctx)
		}
		if q.len() != len(model) {
			t.Fatalf("op %d: queue holds %d events, model %d", op, q.len(), len(model))
		}
	}
	for op := 0; op < 100000; {
		for n := rng.Intn(200); n > 0; n-- {
			seq := rng.Uint64()
			for used[seq] {
				seq = rng.Uint64()
			}
			used[seq] = true
			ev := event{at: time.Duration(rng.Intn(8) - 1), seq: seq, ctx: int32(op)}
			q.push(&ev)
			model = append(model, ev)
			sorted = false
			op++
		}
		for n := rng.Intn(190); n > 0 && len(model) > 0; n-- {
			pop(op)
			op++
		}
	}
	for len(model) > 0 {
		pop(-1)
	}
	if q.pop(&got) {
		t.Fatal("pop on an empty queue reported an event")
	}
	if len(q.free) != len(q.arena) {
		t.Fatalf("drained queue has %d of %d arena slots free", len(q.free), len(q.arena))
	}
}

// TestEventRecordSize pins the arena record: every queued event costs this
// much memory and one copy of it in and one out.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 72 {
		t.Fatalf("event is %d bytes, budget 72", got)
	}
}
