package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// TestQueueMatchesSortedModel drives the heap and a sort.Slice-ordered
// reference with the same 10^5 random pushes, pops and removes, in bursts so
// the depth wanders between empty and a few thousand. Timestamps come from a
// handful of values (one negative) so most comparisons fall through to the
// key, and keys span the full 64 bits (a high context index sets the top
// bit). Removes draw from every (slot, key) handle ever issued, so most are
// stale — the event was popped, already removed, or its slot now holds a
// later event — and must report false and change nothing; a pop is followed
// at once by a remove of the popped handle, which is what a cancel from
// inside a timer's own callback looks like to the queue.
func TestQueueMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var model []event
	sorted := true
	used := map[uint64]bool{}
	type handle struct {
		idx int32
		seq uint64
	}
	var handles []handle
	slotOf := map[uint64]int32{}
	const (
		queued = iota + 1
		popped
		removed
	)
	state := map[uint64]int{}
	var removedLive, staleFired, staleDouble, staleReused int
	var got event
	checkLen := func(op int) {
		if q.len() != len(model) {
			t.Fatalf("op %d: queue holds %d events, model %d", op, q.len(), len(model))
		}
	}
	checkPos := func(op int) {
		for i, h := range q.heap {
			if q.pos[h.idx] != int32(i) || q.arena[h.idx].seq != h.seq {
				t.Fatalf("op %d: heap[%d] = slot %d key %#x, but pos says %d and the slot holds %#x",
					op, i, h.idx, h.seq, q.pos[h.idx], q.arena[h.idx].seq)
			}
		}
	}
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
		if at, ok := q.peekAt(); !ok || at != want.at || q.heap[0].seq != want.seq {
			t.Fatalf("op %d: head = (%v, %v), want (%v, %#x)", op, at, ok, want.at, want.seq)
		}
		if !q.pop(&got) || got.at != want.at || got.seq != want.seq || got.ctx != want.ctx {
			t.Fatalf("op %d: pop = (%v, %#x, ctx %d), want (%v, %#x, ctx %d)",
				op, got.at, got.seq, got.ctx, want.at, want.seq, want.ctx)
		}
		state[want.seq] = popped
		if q.remove(slotOf[want.seq], want.seq) {
			t.Fatalf("op %d: remove of the event just popped reported true", op)
		}
		checkLen(op)
	}
	remove := func(op int) {
		// Half the draws come from the latest few hundred handles, whose
		// slots have mostly not been reused yet.
		from := 0
		if rng.Intn(2) == 0 && len(handles) > 300 {
			from = len(handles) - 300
		}
		h := handles[from+rng.Intn(len(handles)-from)]
		live := state[h.seq] == queued
		switch {
		case live:
			removedLive++
		case q.arena[h.idx].seq != 0:
			staleReused++
		case state[h.seq] == popped:
			staleFired++
		default:
			staleDouble++
		}
		if got := q.remove(h.idx, h.seq); got != live {
			t.Fatalf("op %d: remove(%d, %#x) = %v, want %v", op, h.idx, h.seq, got, live)
		}
		if live {
			state[h.seq] = removed
			if q.remove(h.idx, h.seq) {
				t.Fatalf("op %d: second remove(%d, %#x) reported true", op, h.idx, h.seq)
			}
			for i := range model {
				if model[i].seq == h.seq {
					model = append(model[:i], model[i+1:]...)
					break
				}
			}
		}
		checkLen(op)
	}
	for op := 0; op < 100000; {
		for n := rng.Intn(200); n > 0; n-- {
			seq := rng.Uint64()
			for used[seq] || seq == 0 {
				seq = rng.Uint64()
			}
			used[seq] = true
			ev := event{at: time.Duration(rng.Intn(8) - 1), seq: seq, ctx: int32(op)}
			idx := q.push(&ev)
			handles = append(handles, handle{idx, seq})
			slotOf[seq], state[seq] = idx, queued
			model = append(model, ev)
			sorted = false
			op++
		}
		for n := rng.Intn(40); n > 0; n-- {
			remove(op)
			op++
		}
		checkPos(op)
		for n := rng.Intn(160); n > 0 && len(model) > 0; n-- {
			pop(op)
			op++
		}
	}
	for _, h := range []handle{{}, {idx: -1, seq: 1}, {idx: int32(len(q.arena)), seq: 1}} {
		if q.remove(h.idx, h.seq) {
			t.Fatalf("remove(%d, %#x) of a handle never issued reported true", h.idx, h.seq)
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
	for what, n := range map[string]int{
		"live": removedLive, "already popped": staleFired,
		"already removed": staleDouble, "slot reused": staleReused,
	} {
		if n < 100 {
			t.Errorf("only %d removes hit the %q case", n, what)
		}
	}
}

// TestEventRecordSize pins the arena record: every queued event costs this
// much memory and one copy of it in and one out.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 72 {
		t.Fatalf("event is %d bytes, budget 72", got)
	}
}
