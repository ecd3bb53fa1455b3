// Package txn is the one implementation of a request/response transaction
// in the stack: a table of in-flight requests, each retransmitted on the
// sim.NextRTO schedule until an answer takes it out of the table or its
// budget runs out. MAP dialogues, GTP requests, GMM/SM procedures, RAS
// exchanges and the Q.931 T303/T313 cycles are all instances of Table; they
// differ only in key type, payload type and the two hooks fixed when the
// table is built.
//
// Records live by value in chunks that never move, and a record is its own
// timer argument, so beginning a transaction costs no closure, no boxed
// value and (while a free record exists) no allocation. A record keeps the
// sim.Timer of the one timer that references it; Take cancels that timer and
// frees the record at once, so an answered transaction leaves nothing behind
// — no queue entry, no held record — and a record on the free list is never
// reachable from the event queue.
//
// Chunks grow as slab.Slab's do — 32, 32, 64 ... 512 records, then 1,024
// each — and a burst's capacity is given back when the burst is over: once
// every record is free again, a table holding more than releaseFloor of them
// drops the chunks past the floor and the map that grew to address them. A
// table that never exceeds the floor never releases.
//
// Hooks run on the retransmission timer and may re-enter the table: expired
// may Begin again (a keepalive failure starting a full registration), and
// resend may end transactions, its own included, with Take. When resend has
// ended its own transaction its return value is ignored and expired does not
// run: the timer touches the record again only if it still holds the
// transaction the timer was armed for.
//
// A Table is driven from the simulation goroutine of the node that owns it
// and is not safe for concurrent use.
package txn

import (
	"maps"
	"math"
	"time"
	"unsafe"

	"vgprs/internal/sim"
)

// DefaultRetries is the retransmission budget of a Policy whose Retries is
// left zero.
const DefaultRetries = 3

// Policy is a retransmission schedule exactly as configured: every
// SigRetries/Retries field in the stack carries the configured value, and
// Budget is the only place that interprets it.
type Policy struct {
	// RTO is the wait before the first retransmission; it doubles per
	// attempt, capped at 8x (sim.NextRTO). Zero or negative means the
	// transaction never expires.
	RTO time.Duration
	// Retries is the retransmission budget: zero means DefaultRetries,
	// negative means none (the first unanswered RTO fails the transaction).
	Retries int
}

// Budget resolves Retries to the number of retransmissions allowed.
func (p Policy) Budget() int {
	switch {
	case p.Retries > 0:
		return p.Retries
	case p.Retries < 0:
		return 0
	}
	return DefaultRetries
}

// Deadline is the virtual time from the first transmission to the budget
// running out.
func (p Policy) Deadline() time.Duration { return sim.RetryDeadline(p.RTO, p.Budget()) }

// chunk is the size of a table's first two chunks; each later one doubles
// the table, up to releaseFloor records a chunk — which is also what a drained
// table keeps. Releasing from 32 up made 600-MS worlds regrow their tables
// every wave (region_attach +9-14 % CPU); none holds 1,024 of a kind in flight.
const chunk, releaseFloor = 32, 1024

type record[K comparable, T any] struct {
	data  T
	next  *record[K, T] // the free list's link: growing it allocates nothing
	env   *sim.Env
	timer sim.Timer     // the pending retransmission timer; zero if untimed
	rto0  time.Duration // initial timeout; the current one is rto0<<doubled
	key   K
	left  int16 // retransmissions remaining
	// doubled counts the backoff steps so far, up to sim.NextRTO's cap.
	doubled uint8
}

// Table is a set of in-flight transactions keyed by K, each carrying a
// payload T that belongs to the owning plane.
type Table[K comparable, T any] struct {
	resend  func(env *sim.Env, t *T) bool
	expired func(env *sim.Env, t *T)
	fire    func(any)

	byKey     map[K]*record[K, T]
	chunks    [][]record[K, T]
	free      *record[K, T]
	cap, idle int // records allocated, and how many of them are free
	burst     int // cap at the last release

	begun, resolved, timedOut, retransmits uint64
}

// New returns an empty table. resend retransmits the request held in t and
// reports whether it could: false (the subscriber row behind a slab.Handle
// in t went stale, say) fails the transaction at once instead of spending
// the rest of its budget. expired runs once when a transaction's budget is
// exhausted, after it has left the table. Both run on the retransmission
// timer with the env the transaction began under.
func New[K comparable, T any](resend func(env *sim.Env, t *T) bool, expired func(env *sim.Env, t *T)) *Table[K, T] {
	tb := &Table[K, T]{resend: resend, expired: expired, byKey: make(map[K]*record[K, T])}
	tb.fire = tb.onTimer
	return tb
}

// Begin enters a transaction under key and, when the policy has an RTO, arms
// its retransmission timer. The caller fills the returned payload and sends
// the first copy of the request itself; the table only ever retransmits. A
// key already in flight is rejected with nil.
func (tb *Table[K, T]) Begin(env *sim.Env, key K, p Policy) *T {
	if _, dup := tb.byKey[key]; dup {
		return nil
	}
	if tb.free == nil {
		if tb.cap == releaseFloor && tb.burst > 0 {
			// Bursts repeat: size the map for one like the last, once,
			// rather than rehash it at every doubling on the way up.
			m := make(map[K]*record[K, T], tb.burst)
			maps.Copy(m, tb.byKey)
			tb.byKey = m
		}
		tb.chunks = append(tb.chunks, make([]record[K, T], min(max(tb.cap, chunk), releaseFloor)))
		tb.refill(len(tb.chunks) - 1)
	}
	r := tb.free
	tb.free, tb.idle = r.next, tb.idle-1
	r.next, r.key, r.env = nil, key, env
	tb.byKey[key] = r
	tb.begun++
	if p.RTO > 0 {
		r.rto0, r.left = p.RTO, int16(min(p.Budget(), math.MaxInt16))
		r.timer = env.AfterArg(p.RTO, tb.fire, r)
	}
	return &r.data
}

// refill puts the records of chunks[from:] on the free list.
func (tb *Table[K, T]) refill(from int) {
	for _, c := range tb.chunks[from:] {
		for i := range c {
			c[i].next, tb.free = tb.free, &c[i]
		}
		tb.cap, tb.idle = tb.cap+len(c), tb.idle+len(c)
	}
}

// Take ends the transaction under key — its answer arrived, or the plane is
// stopping it — cancels its timer and returns its payload. It reports false
// for a key not in flight, which is how a late answer after a timeout is
// dropped.
func (tb *Table[K, T]) Take(key K) (T, bool) {
	r, ok := tb.byKey[key]
	if !ok {
		var zero T
		return zero, false
	}
	delete(tb.byKey, key)
	tb.resolved++
	data := r.data
	r.env.Cancel(r.timer)
	tb.put(r)
	return data, true
}

// Get returns the payload of the transaction in flight under key, which stays.
func (tb *Table[K, T]) Get(key K) (data T, ok bool) {
	if r := tb.byKey[key]; r != nil {
		return r.data, true
	}
	return data, false
}

// put frees r. Every record idle means the table has drained, and put runs
// last in whatever ended a transaction, so no record is in use when the
// burst's capacity is let go. (A timer whose hook took its own record holds
// it until onTimer returns, and only compares its zeroed timer.)
func (tb *Table[K, T]) put(r *record[K, T]) {
	*r = record[K, T]{next: tb.free}
	tb.free, tb.idle = r, tb.idle+1
	if tb.idle < tb.cap || tb.cap <= releaseFloor {
		return
	}
	keep := 0
	for n := 0; n < releaseFloor; keep++ {
		n += len(tb.chunks[keep])
	}
	clear(tb.chunks[keep:])
	tb.chunks = tb.chunks[:keep]
	tb.free, tb.burst, tb.cap, tb.idle = nil, tb.cap, 0, 0
	tb.refill(0)
	tb.byKey = make(map[K]*record[K, T])
}

func (tb *Table[K, T]) onTimer(arg any) {
	r := arg.(*record[K, T])
	fired := r.timer
	resent := r.left > 0 && tb.resend(r.env, &r.data)
	if r.timer != fired {
		// The hook took this transaction: the record is free, or already
		// holds another. Timer keys are unique, so the test is exact.
		return
	}
	if resent {
		r.left--
		tb.retransmits++
		cur := r.rto0 << r.doubled
		rto := sim.NextRTO(cur, r.rto0)
		if rto > cur {
			r.doubled++
		}
		r.timer = r.env.AfterArg(rto, tb.fire, r)
		return
	}
	delete(tb.byKey, r.key)
	tb.timedOut++
	tb.expired(r.env, &r.data)
	tb.put(r)
}

// InFlight returns the number of unanswered transactions.
func (tb *Table[K, T]) InFlight() int { return len(tb.byKey) }

// Retransmits returns the number of requests re-sent by the timer over the
// table's lifetime. It never decreases.
func (tb *Table[K, T]) Retransmits() uint64 { return tb.retransmits }

// Stats is a table's lifetime accounting. Once every transaction has ended
// Begun == Resolved + TimedOut.
type Stats struct {
	Begun       uint64
	Resolved    uint64 // ended by Take
	TimedOut    uint64 // ended by the timer
	Retransmits uint64
	InFlight    int
}

// Stats returns the table's counters.
func (tb *Table[K, T]) Stats() Stats {
	return Stats{
		Begun: tb.begun, Resolved: tb.resolved, TimedOut: tb.timedOut,
		Retransmits: tb.retransmits, InFlight: len(tb.byKey),
	}
}

// Occupancy accounts for every record the table ever allocated.
type Occupancy struct {
	Cap      int // records allocated
	Free     int // on the free list
	InFlight int // unanswered
}

// Imbalance is the number of records unaccounted for; non-zero means one
// leaked. A table with nothing in flight has Free == Cap.
func (o Occupancy) Imbalance() int {
	d := o.Cap - o.Free - o.InFlight
	if d < 0 {
		return -d
	}
	return d
}

// Occupancy returns the record accounting; owners fold its Imbalance into
// their SlabImbalance audit.
func (tb *Table[K, T]) Occupancy() Occupancy {
	return Occupancy{Cap: tb.cap, Free: tb.idle, InFlight: len(tb.byKey)}
}

// Bytes is the memory the table holds, for its owner's Footprint: records,
// plus a key, a pointer and a control byte per map entry at 7/8 load.
func (tb *Table[K, T]) Bytes() int {
	var key K
	return tb.cap*RecordSize[K, T]() + len(tb.byKey)*int(unsafe.Sizeof(key)+unsafe.Sizeof(&key)+1)*8/7
}

// RecordSize is what one transaction of a Table[K, T] occupies: the payload
// and the header the table keeps beside it.
func RecordSize[K comparable, T any]() int { return int(unsafe.Sizeof(record[K, T]{})) }
