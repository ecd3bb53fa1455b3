package sim

import (
	"cmp"
	"math/bits"
	"slices"
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

// eventQueue orders events by (at, seq), grouping them per timestamp.
//
// The stack's links have whole-millisecond latencies and its voice calls
// share one 20 ms frame beat, so a queue hundreds or thousands deep holds a
// handful of distinct timestamps (EXPERIMENTS.md "Event queue"). The queue
// therefore orders timestamps, not events:
//
//   - Event records live by value in a slot arena and never move while
//     queued; freed slots go on a free-list, so a steady-state
//     schedule/dispatch cycle allocates nothing once the arena has grown to
//     its high-water mark.
//   - Queued slots sharing a timestamp form a group: a circular list
//     threaded through links, so a cancel unlinks a slot in O(1). A group
//     is named by its first slot, its head.
//   - A 4-ary min-heap of 16-byte {at, head, grouped} entries orders the
//     groups; the four children of a node share a cache line. pos maps a
//     head back to its heap position. A lone event is a heap entry and
//     nothing else: its links are set only when a second event joins it
//     (grouped), so a timestamp of one costs what it cost in a plain heap.
//   - hint maps a hash of a timestamp to the group last made for it. It is
//     only a hint: on a miss a push starts a second group for the same
//     timestamp, and opening that timestamp merges every group it has.
//   - When the clock reaches a timestamp its groups leave the heap and
//     their events are gathered once into open, sorted by seq. Pops take
//     open in order; a later push at the open instant is inserted in key
//     order, and one earlier than it files the rest of the instant back
//     into a group. A timestamp with a single event skips open.
//
// No structure holds a pointer, so the garbage collector never scans the
// queue's bookkeeping, only the arena.
type eventQueue struct {
	arena []event    // slot storage
	free  []int32    // arena slots available for reuse
	links []slotLink // arena slot -> its neighbours in its group
	pos   []int32    // arena slot -> heap position if it heads a group, else member or inOpen
	heap  []tsEntry  // groups in timestamp order
	hint  [hintSize]tsEntry

	open   []openEntry   // the open instant's events by seq; open[cur:] are unpopped
	cur    int           // next entry of open to pop
	openAt time.Duration // the open instant
	openN  int           // queued events in open[cur:]; 0 means no instant is open
	n      int           // queued events
}

// slotLink threads a queued slot into its group's circular list: the
// head's prev is the group's last slot. A lone head's link is unset.
type slotLink struct {
	prev, next int32
}

// pos values of a slot that heads no group.
const (
	member = -1 // in a group, behind its head
	inOpen = -2 // in the open instant
)

// tsEntry is one node of the timestamp heap: a group's timestamp and head,
// and grouped = 1 once a second event has joined it. (A bool there made the
// sifts' entry copies measurably slower.)
type tsEntry struct {
	at      time.Duration
	head    int32
	grouped int32
}

// openEntry is one event of the open instant. A cancelled event stays in
// open until popped past: its slot no longer holds seq.
type openEntry struct {
	seq uint64
	idx int32
}

const hintBits = 6
const hintSize = 1 << hintBits

// hintSlot hashes a timestamp into the hint table. Timestamps are mostly
// whole milliseconds, whose low bits are all equal, so the hash is
// Fibonacci's: the top bits of a multiplication.
func hintSlot(at time.Duration) uint64 {
	return uint64(at) * 0x9e3779b97f4a7c15 >> (64 - hintBits)
}

// earlier reports 1 if a is before b and 0 otherwise: the borrow out of
// a-b with the sign bit flipped so unsigned order is time order. It is a
// number, not a branch, because which of two queued timestamps is earlier
// is close to a coin flip, and siftDown makes four calls per level.
func earlier(a, b time.Duration) uint64 {
	const signBit = 1 << 63
	_, borrow := bits.Sub64(uint64(a)^signBit, uint64(b)^signBit, 0)
	return borrow
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
		q.links = append(q.links, slotLink{})
		q.pos = append(q.pos, 0)
	}
	q.n++
	if q.openN > 0 {
		if ev.at == q.openAt {
			q.insertOpen(openEntry{seq: ev.seq, idx: idx})
			return idx
		}
		if ev.at < q.openAt {
			q.closeOpen()
		}
	}
	h := hintSlot(ev.at)
	if g := q.hint[h]; g.at == ev.at {
		// The hinted slot may have left its group, or its group the heap,
		// since: it still names the group only if the heap says so.
		if p := q.pos[g.head]; p >= 0 && int(p) < len(q.heap) && q.heap[p].head == g.head && q.heap[p].at == ev.at {
			q.join(p, idx)
			return idx
		}
	}
	q.lead(ev.at, idx)
	q.hint[h] = tsEntry{at: ev.at, head: idx}
	return idx
}

// lead makes slot idx a group of one at timestamp at and heaps it.
func (q *eventQueue) lead(at time.Duration, idx int32) {
	q.heap = append(q.heap, tsEntry{})
	q.siftUp(len(q.heap)-1, tsEntry{at: at, head: idx})
}

// join appends slot idx to the end of the group at heap position p.
func (q *eventQueue) join(p, idx int32) {
	head := q.heap[p].head
	if q.heap[p].grouped == 0 {
		q.heap[p].grouped = 1
		q.links[head] = slotLink{prev: head, next: head}
	}
	last := q.links[head].prev
	q.links[idx] = slotLink{prev: last, next: head}
	q.links[last].next = idx
	q.links[head].prev = idx
	q.pos[idx] = member
}

// peekAt reports the timestamp of the earliest event, if any.
func (q *eventQueue) peekAt() (time.Duration, bool) {
	if q.openN > 0 {
		return q.openAt, true
	}
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
	var idx int32
	switch {
	case q.openN > 0:
		idx = q.takeOpen()
	case len(q.heap) > 0:
		idx = q.openNext()
	default:
		return false
	}
	*out = q.arena[idx]
	q.arena[idx] = event{}
	q.free = append(q.free, idx)
	q.n--
	return true
}

// openNext takes the earliest timestamp's groups off the heap and returns
// its first event. A lone event is returned as it is; otherwise every event
// at that timestamp is gathered into open and sorted by key.
func (q *eventQueue) openNext() int32 {
	top := q.heap[0]
	q.removeAt(0)
	if top.grouped == 0 && (len(q.heap) == 0 || q.heap[0].at != top.at) {
		return top.head
	}
	q.gather(top)
	for len(q.heap) > 0 && q.heap[0].at == top.at {
		g := q.heap[0]
		q.removeAt(0)
		q.gather(g)
	}
	sortByKey(q.open, 2*bits.Len(uint(len(q.open))))
	q.openAt, q.openN = top.at, len(q.open)
	return q.takeOpen()
}

// sortByKey sorts s by seq: quicksort on a median-of-three pivot down to
// insertion sort for runs of 12 or fewer, with the key compared inline. The
// media relay's instants hold dozens of events in nearly random key order,
// and there slices.SortFunc, a comparator call per comparison, cost nearly
// three times the CPU. Past depth levels it hands over to slices.SortFunc,
// whose pdqsort has no quadratic case. Keys are distinct.
func sortByKey(s []openEntry, depth int) {
	for len(s) > 12 {
		if depth == 0 {
			slices.SortFunc(s, func(a, b openEntry) int { return cmp.Compare(a.seq, b.seq) })
			return
		}
		depth--
		// The median of the first, middle and last keys goes to s[0].
		n, m := len(s), len(s)/2
		if s[m].seq < s[0].seq {
			s[0], s[m] = s[m], s[0]
		}
		if s[n-1].seq < s[m].seq {
			s[m], s[n-1] = s[n-1], s[m]
			if s[m].seq < s[0].seq {
				s[0], s[m] = s[m], s[0]
			}
		}
		s[0], s[m] = s[m], s[0]
		pivot := s[0].seq
		i, j := 1, n-1
		for {
			for i <= j && s[i].seq < pivot {
				i++
			}
			for i <= j && s[j].seq > pivot {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
		s[0], s[j] = s[j], s[0]
		// Recurse into the shorter side, loop on the longer.
		if j < n-1-j {
			sortByKey(s[:j], depth)
			s = s[j+1:]
		} else {
			sortByKey(s[j+1:], depth)
			s = s[:j]
		}
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for ; j > 0 && s[j-1].seq > e.seq; j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
}

// gather appends group g's events to open.
func (q *eventQueue) gather(g tsEntry) {
	s := g.head
	for {
		q.pos[s] = inOpen
		q.open = append(q.open, openEntry{seq: q.arena[s].seq, idx: s})
		if g.grouped == 0 {
			return
		}
		if s = q.links[s].next; s == g.head {
			return
		}
	}
}

// takeOpen pops the open instant's next queued event, skipping cancelled
// ones, and closes the instant when it was the last.
func (q *eventQueue) takeOpen() int32 {
	for {
		e := q.open[q.cur]
		q.cur++
		if q.arena[e.idx].seq == e.seq {
			q.dropOpen()
			return e.idx
		}
	}
}

// dropOpen counts one event out of the open instant.
func (q *eventQueue) dropOpen() {
	if q.openN--; q.openN == 0 {
		q.open, q.cur = q.open[:0], 0
	}
}

// insertOpen files a push at the open instant in key order among the
// events not yet popped. Only a zero-delay event lands here (none does in
// the five benchmark workloads), so a plain insert is enough.
func (q *eventQueue) insertOpen(e openEntry) {
	i, _ := slices.BinarySearchFunc(q.open[q.cur:], e.seq, func(o openEntry, seq uint64) int { return cmp.Compare(o.seq, seq) })
	q.open = slices.Insert(q.open, q.cur+i, e)
	q.pos[e.idx] = inOpen
	q.openN++
}

// closeOpen files the open instant's unpopped events back into a group,
// for a push earlier than the instant.
func (q *eventQueue) closeOpen() {
	head := int32(-1)
	for _, e := range q.open[q.cur:] {
		switch {
		case q.arena[e.idx].seq != e.seq:
			// cancelled
		case head < 0:
			head = e.idx
			q.lead(q.openAt, head)
		default:
			q.join(q.pos[head], e.idx)
		}
	}
	q.open, q.cur, q.openN = q.open[:0], 0, 0
}

// remove takes the event with key seq out of slot idx and reports whether
// it was there. A slot that has been popped, removed or reused since holds
// another key (a free slot holds 0, which no event has), so a stale
// (idx, seq) pair is a harmless false.
func (q *eventQueue) remove(idx int32, seq uint64) bool {
	if seq == 0 || uint(idx) >= uint(len(q.arena)) || q.arena[idx].seq != seq {
		return false
	}
	q.arena[idx] = event{}
	q.free = append(q.free, idx)
	q.n--
	p := q.pos[idx]
	if p == inOpen {
		q.dropOpen()
		return true
	}
	if p >= 0 && (q.heap[p].grouped == 0 || q.links[idx].next == idx) {
		// A group of one: its timestamp leaves the heap.
		q.removeAt(int(p))
		return true
	}
	l := q.links[idx]
	q.links[l.prev].next = l.next
	q.links[l.next].prev = l.prev
	if p >= 0 {
		// The head leaves: the next slot heads the group in its place.
		q.heap[p].head = l.next
		q.pos[l.next] = p
	}
	return true
}

func (q *eventQueue) len() int { return q.n }

// removeAt takes entry i out of the timestamp heap.
func (q *eventQueue) removeAt(i int) {
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i == last {
		return
	}
	// The last entry fills the hole; it may belong above or below it.
	if i > 0 && earlier(moved.at, q.heap[(i-1)/4].at) != 0 {
		q.siftUp(i, moved)
	} else {
		q.siftDown(i, moved)
	}
}

// siftUp places moved at or above hole i.
func (q *eventQueue) siftUp(i int, moved tsEntry) {
	h, pos := q.heap, q.pos
	for i > 0 {
		parent := (i - 1) / 4
		if earlier(moved.at, h[parent].at) == 0 {
			break
		}
		h[i] = h[parent]
		pos[h[i].head] = int32(i)
		i = parent
	}
	h[i] = moved
	pos[moved.head] = int32(i)
}

// siftDown places moved at or below hole i.
func (q *eventQueue) siftDown(i int, moved tsEntry) {
	h, pos := q.heap, q.pos
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			// best = c if h[c] is earlier, selected without a branch.
			best += (c - best) & -int(earlier(h[c].at, h[best].at))
		}
		if earlier(h[best].at, moved.at) == 0 {
			break
		}
		h[i] = h[best]
		pos[h[i].head] = int32(i)
		i = best
	}
	h[i] = moved
	pos[moved.head] = int32(i)
}
