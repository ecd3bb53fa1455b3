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
// value and (past the first chunk) no allocation. The price is that a
// record answered before its timer fires cannot be reused until that timer
// has run — the event queue still points at it — so Take only parks it and
// the timer recycles it. That protocol lives here and nowhere else.
//
// A Table is driven from the simulation goroutine of the node that owns it
// and is not safe for concurrent use.
package txn

import (
	"time"

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

// chunk is the number of records allocated at a time.
const chunk = 32

type record[K comparable, T any] struct {
	data T
	key  K
	env  *sim.Env
	rto  time.Duration // current timeout
	rto0 time.Duration // initial timeout, bounds the backoff
	left int           // retransmissions remaining
	// live: in the table, unanswered. armed: a timer event references the
	// record. A record that is armed but not live is parked.
	live, armed bool
}

// Table is a set of in-flight transactions keyed by K, each carrying a
// payload T that belongs to the owning plane.
type Table[K comparable, T any] struct {
	resend  func(env *sim.Env, t *T) bool
	expired func(env *sim.Env, t *T)
	fire    func(any)

	byKey  map[K]*record[K, T]
	free   []*record[K, T]
	cap    int
	parked int

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
	if len(tb.free) == 0 {
		recs := make([]record[K, T], chunk)
		for i := range recs {
			tb.free = append(tb.free, &recs[i])
		}
		tb.cap += chunk
	}
	n := len(tb.free) - 1
	r := tb.free[n]
	tb.free = tb.free[:n]
	r.key, r.env, r.live = key, env, true
	tb.byKey[key] = r
	tb.begun++
	if p.RTO > 0 {
		r.rto, r.rto0, r.left, r.armed = p.RTO, p.RTO, p.Budget(), true
		env.AfterArg(p.RTO, tb.fire, r)
	}
	return &r.data
}

// Take ends the transaction under key — its answer arrived, or the plane is
// stopping it — and returns its payload. It reports false for a key not in
// flight, which is how a late answer after a timeout is dropped.
func (tb *Table[K, T]) Take(key K) (T, bool) {
	r, ok := tb.byKey[key]
	if !ok {
		var zero T
		return zero, false
	}
	delete(tb.byKey, key)
	tb.resolved++
	data := r.data
	if r.armed {
		// The timer event still holds the record: release what the payload
		// references now and let the timer recycle it.
		var zero T
		r.data, r.live = zero, false
		tb.parked++
	} else {
		tb.put(r)
	}
	return data, true
}

func (tb *Table[K, T]) put(r *record[K, T]) {
	*r = record[K, T]{}
	tb.free = append(tb.free, r)
}

func (tb *Table[K, T]) onTimer(arg any) {
	r := arg.(*record[K, T])
	r.armed = false
	if !r.live {
		tb.parked--
		tb.put(r)
		return
	}
	if r.left > 0 && tb.resend(r.env, &r.data) {
		r.left--
		tb.retransmits++
		r.rto = sim.NextRTO(r.rto, r.rto0)
		r.armed = true
		r.env.AfterArg(r.rto, tb.fire, r)
		return
	}
	delete(tb.byKey, r.key)
	r.live = false
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
	Parked   int // answered, waiting for their timer to recycle them
}

// Imbalance is the number of records unaccounted for; non-zero means one
// leaked. With the event queue drained Parked is zero too, so a quiet table
// has Free == Cap.
func (o Occupancy) Imbalance() int {
	d := o.Cap - o.Free - o.InFlight - o.Parked
	if d < 0 {
		return -d
	}
	return d
}

// Occupancy returns the record accounting; owners fold its Imbalance into
// their SlabImbalance audit.
func (tb *Table[K, T]) Occupancy() Occupancy {
	return Occupancy{Cap: tb.cap, Free: len(tb.free), InFlight: len(tb.byKey), Parked: tb.parked}
}
