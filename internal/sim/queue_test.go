package sim

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// TestQueueMatchesSortedModel drives the queue and a sort.Slice-ordered
// reference with the same 10^5 random pushes, pops and removes, in bursts so
// the depth wanders between empty and a few thousand. Timestamps come from a
// handful of values (one negative) so most comparisons fall through to the
// key, and keys span the full 64 bits (a high context index sets the top
// bit). Removes draw from every (slot, key) handle ever issued, so most are
// stale — the event was popped, already removed, or its slot now holds a
// later event — and must report false and change nothing; a pop is followed
// at once by a remove of the popped handle, which is what a cancel from
// inside a timer's own callback looks like to the queue. Pushes land in the
// open instant, some with keys below the events already popped there (a
// lower context's zero-delay event) and some earlier than it, and removes
// land inside it; each case must occur.
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
	var pushOpenBelow, pushBeforeOpen, removeOpen int
	var got event
	checkLen := func(op int) {
		if q.len() != len(model) {
			t.Fatalf("op %d: queue holds %d events, model %d", op, q.len(), len(model))
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
		if at, ok := q.peekAt(); !ok || at != want.at {
			t.Fatalf("op %d: head = (%v, %v), want %v", op, at, ok, want.at)
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
	remove := func(op int, h handle) {
		live := state[h.seq] == queued
		switch {
		case live:
			removedLive++
			if q.pos[h.idx] == inOpen {
				removeOpen++
			}
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
			if q.openN > 0 {
				switch {
				case ev.at == q.openAt && ev.seq < got.seq:
					pushOpenBelow++
				case ev.at < q.openAt:
					pushBeforeOpen++
				}
			}
			idx := q.push(&ev)
			handles = append(handles, handle{idx, seq})
			slotOf[seq], state[seq] = idx, queued
			model = append(model, ev)
			sorted = false
			op++
		}
		for n := rng.Intn(40); n > 0; n-- {
			// Half the draws come from the latest few hundred handles,
			// whose slots have mostly not been reused yet.
			from := 0
			if rng.Intn(2) == 0 && len(handles) > 300 {
				from = len(handles) - 300
			}
			remove(op, handles[from+rng.Intn(len(handles)-from)])
			op++
		}
		checkQueue(t, &q, op)
		for n := rng.Intn(160); n > 0 && len(model) > 0; n-- {
			pop(op)
			op++
		}
		// A few cancels of events the pops have left in an open instant.
		for n := rng.Intn(8); n > 0 && q.openN > 0; n-- {
			e := q.open[q.cur+rng.Intn(len(q.open)-q.cur)]
			remove(op, handle{e.idx, e.seq})
			op++
		}
		checkQueue(t, &q, op)
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
		"push into the open instant below its last pop": pushOpenBelow,
		"push earlier than the open instant":            pushBeforeOpen,
		"remove inside the open instant":                removeOpen,
	} {
		if n < 100 {
			t.Errorf("only %d operations hit the %q case", n, what)
		}
	}
}

// checkQueue walks the queue's structure: every queued slot is reachable
// exactly once, from a group on the timestamp heap or from the open
// instant; the heap is ordered and its heads know their positions; the open
// instant is sorted by key and earlier than every group; and len counts
// what the walk found.
func checkQueue(t *testing.T, q *eventQueue, op int) {
	t.Helper()
	seen := map[int32]bool{}
	visit := func(idx int32, at time.Duration) {
		if seen[idx] {
			t.Fatalf("op %d: slot %d is reachable twice", op, idx)
		}
		seen[idx] = true
		if ev := q.arena[idx]; ev.seq == 0 || ev.at != at {
			t.Fatalf("op %d: slot %d holds (%v, %#x), filed under %v", op, idx, ev.at, ev.seq, at)
		}
	}
	for i, e := range q.heap {
		if i > 0 && e.at < q.heap[(i-1)/4].at {
			t.Fatalf("op %d: heap[%d] at %v is earlier than its parent's %v", op, i, e.at, q.heap[(i-1)/4].at)
		}
		if q.openN > 0 && e.at <= q.openAt {
			t.Fatalf("op %d: heap[%d] at %v is not after the open instant %v", op, i, e.at, q.openAt)
		}
		if q.pos[e.head] != int32(i) {
			t.Fatalf("op %d: heap[%d] is headed by slot %d, whose pos says %d", op, i, e.head, q.pos[e.head])
		}
		for s := e.head; ; {
			visit(s, e.at)
			if e.grouped == 0 {
				break
			}
			next := q.links[s].next
			if q.links[next].prev != s {
				t.Fatalf("op %d: slot %d links on to %d, which links back to %d", op, s, next, q.links[next].prev)
			}
			if next == e.head {
				break
			}
			if q.pos[next] != member {
				t.Fatalf("op %d: slot %d behind head %d has pos %d", op, next, e.head, q.pos[next])
			}
			s = next
		}
	}
	open := 0
	for i, e := range q.open[q.cur:] {
		if i > 0 && e.seq <= q.open[q.cur+i-1].seq {
			t.Fatalf("op %d: open instant not sorted at %d", op, q.cur+i)
		}
		if q.arena[e.idx].seq == e.seq {
			if q.pos[e.idx] != inOpen {
				t.Fatalf("op %d: open slot %d has pos %d", op, e.idx, q.pos[e.idx])
			}
			visit(e.idx, q.openAt)
			open++
		}
	}
	if open != q.openN {
		t.Fatalf("op %d: open instant holds %d events, openN says %d", op, open, q.openN)
	}
	if len(seen) != q.len() || len(seen)+len(q.free) != len(q.arena) {
		t.Fatalf("op %d: %d slots reachable, %d free, arena %d, len %d",
			op, len(seen), len(q.free), len(q.arena), q.len())
	}
}

// TestEventRecordSize pins the arena record: every queued event costs this
// much memory and one copy of it in and one out.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 72 {
		t.Fatalf("event is %d bytes, budget 72", got)
	}
}

// TestSortByKey checks the open instant's sort against slices.Sort on
// sorted, reversed, organ-pipe and random inputs of every length up to 300,
// and on random input with a zero depth budget, which hands the whole sort
// to the fallback.
func TestSortByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for shape := 0; shape < 5; shape++ {
			keys := make([]uint64, n)
			for i := range keys {
				switch shape {
				case 0:
					keys[i] = uint64(i + 1)
				case 1:
					keys[i] = uint64(n - i)
				case 2:
					keys[i] = uint64(min(i, n-i)*2 + i%2 + 1)
				default:
					keys[i] = rng.Uint64()
				}
			}
			s := make([]openEntry, n)
			for i, k := range keys {
				s[i] = openEntry{seq: k, idx: int32(i)}
			}
			depth := 2 * bits.Len(uint(n))
			if shape == 4 {
				depth = 0
			}
			sortByKey(s, depth)
			slices.Sort(keys)
			for i, e := range s {
				if e.seq != keys[i] {
					t.Fatalf("n %d shape %d: s[%d] = %#x, want %#x", n, shape, i, e.seq, keys[i])
				}
			}
		}
	}
}
