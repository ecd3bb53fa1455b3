package sim

import (
	"math/bits"
	"time"
)

// Event kinds. Delivery events are the engine's steady state and carry their
// routing inline so dispatch needs no closure; timer events keep the general
// func() path for protocol timers.
const (
	evTimer uint8 = iota
	evTimerArg
	evDeliver
)

// event is a scheduled occurrence: 72 bytes, stored by value in the queue's
// arena, never individually on the heap. Ties on timestamp break on the
// event key (seq): the scheduling context's index in the high bits, its
// private emission counter below.
//
// A delivery names its endpoints and interface through link (link.From,
// link.To, link.Iface) rather than carrying copies. An evTimer keeps its
// func() in arg: a func value is pointer-shaped, so the interface conversion
// stores the pointer and does not allocate.
type event struct {
	at    time.Duration
	seq   uint64
	kind  uint8
	ctx   int32     // context the event dispatches in (destination node, or scheduler for timers)
	argFn func(any) // evTimerArg
	arg   any       // evTimerArg: argFn's argument; evTimer: the func() to call
	link  *Link     // evDeliver
	msg   Message   // evDeliver
}

// heapEntry is one node of the heap: the event's full ordering key inline,
// plus the arena slot holding the rest of the record.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// before reports 1 if a orders before b by (at, seq) and 0 otherwise: the
// borrow out of the 128-bit subtraction a-b, with the timestamp's sign bit
// flipped so unsigned order is time order. It is computed and returned as a
// number because which of two queued events is earlier is close to a coin
// flip: a compare-and-branch here is a branch the predictor cannot learn,
// and siftDown makes four calls per level.
func (a *heapEntry) before(b *heapEntry) uint64 {
	const signBit = 1 << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^signBit, uint64(b.at)^signBit, borrow)
	return borrow
}

// eventQueue is a 4-ary min-heap ordered by (at, seq).
//
// Layout: event records live by value in a slot arena and never move while
// queued; the heap orders 24-byte {at, seq, idx} entries. The key is inline
// so a sift compares adjacent heap memory — the four children of a node sit
// in 96 contiguous bytes — and never reads the arena, which at the depths
// the stack runs (hundreds of entries under a voice relay, tens of
// thousands under an attach storm) would be a cache miss per comparison.
// Sifts move 24-byte entries, never the 72-byte records. Freed
// slots go on a free-list and are reused by later pushes, so a steady-state
// schedule/dispatch cycle performs zero heap allocations once the arena has
// grown to the high-water mark.
//
// pos maps an arena slot back to its entry's heap position; the sifts keep
// it current wherever they write an entry. It is what lets remove take an
// event out of the middle of the heap, so a cancelled timer leaves nothing
// queued.
//
// A 4-ary heap does the same work as a binary heap in half the tree height.
type eventQueue struct {
	arena []event     // slot storage, indexed by heapEntry.idx
	free  []int32     // arena slots available for reuse
	heap  []heapEntry // heap-ordered keys
	pos   []int32     // arena slot -> index in heap, for queued slots
}

// push schedules a copy of *ev and returns the arena slot holding it.
func (q *eventQueue) push(ev *event) int32 {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[idx] = *ev
	} else {
		idx = int32(len(q.arena))
		q.arena = append(q.arena, *ev)
		q.pos = append(q.pos, 0)
	}
	q.heap = append(q.heap, heapEntry{})
	q.siftUp(len(q.heap)-1, heapEntry{at: ev.at, seq: ev.seq, idx: idx})
	return idx
}

// peekAt reports the timestamp of the earliest event, if any.
func (q *eventQueue) peekAt() (time.Duration, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// pop removes the earliest event into *out and reports whether there was
// one. The record is fully detached: its arena slot is cleared, so the arena
// does not retain callbacks or messages past dispatch, and is already back
// on the free-list.
func (q *eventQueue) pop(out *event) bool {
	if len(q.heap) == 0 {
		return false
	}
	idx := q.heap[0].idx
	*out = q.arena[idx]
	q.arena[idx] = event{}
	q.free = append(q.free, idx)
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0, moved)
	}
	return true
}

// remove takes the event with key seq out of slot idx, wherever its entry
// sits in the heap, and reports whether it was there. A slot that has been
// popped, removed or reused since holds another key (a free slot holds 0,
// which no event has), so a stale (idx, seq) pair is a harmless false.
func (q *eventQueue) remove(idx int32, seq uint64) bool {
	if seq == 0 || uint(idx) >= uint(len(q.arena)) || q.arena[idx].seq != seq {
		return false
	}
	q.arena[idx] = event{}
	q.free = append(q.free, idx)
	i := int(q.pos[idx])
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i == last {
		return true
	}
	// The last entry fills the hole; it may belong above or below it.
	if i > 0 && moved.before(&q.heap[(i-1)/4]) != 0 {
		q.siftUp(i, moved)
	} else {
		q.siftDown(i, moved)
	}
	return true
}

func (q *eventQueue) len() int { return len(q.heap) }

// siftUp places moved at or above hole i.
func (q *eventQueue) siftUp(i int, moved heapEntry) {
	h, pos := q.heap, q.pos
	for i > 0 {
		parent := (i - 1) / 4
		if moved.before(&h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		pos[h[i].idx] = int32(i)
		i = parent
	}
	h[i] = moved
	pos[moved.idx] = int32(i)
}

// siftDown places moved at or below hole i.
func (q *eventQueue) siftDown(i int, moved heapEntry) {
	h, pos := q.heap, q.pos
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			// best = c if h[c] is earlier, selected without a branch.
			best += (c - best) & -int(h[c].before(&h[best]))
		}
		if h[best].before(&moved) == 0 {
			break
		}
		h[i] = h[best]
		pos[h[i].idx] = int32(i)
		i = best
	}
	h[i] = moved
	pos[moved.idx] = int32(i)
}
