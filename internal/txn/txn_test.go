package txn

import (
	"testing"
	"time"

	"vgprs/internal/sim"
	"vgprs/internal/slab"
)

// req is the test payload: what a plane would keep per transaction.
type req struct {
	id      uint32
	subject slab.Handle
}

// harness is one table whose hooks record what the timer did and when.
type harness struct {
	env      *sim.Env
	tb       *Table[uint32, req]
	subjects *slab.Slab[struct{}]
	resent   []time.Duration
	expired  []uint32
	expireAt time.Duration
}

func newHarness() *harness {
	h := &harness{env: sim.NewEnv(1), subjects: slab.NewSlab[struct{}]()}
	h.tb = New[uint32](
		func(env *sim.Env, r *req) bool {
			// A plane resolves its subject handle before re-sending on its
			// behalf; a stale handle means nobody is left to send for.
			if !r.subject.IsZero() && h.subjects.Get(r.subject) == nil {
				return false
			}
			h.resent = append(h.resent, env.Now())
			return true
		},
		func(env *sim.Env, r *req) {
			h.expired = append(h.expired, r.id)
			h.expireAt = env.Now()
		},
	)
	return h
}

func (h *harness) begin(t *testing.T, id uint32, p Policy) *req {
	t.Helper()
	r := h.tb.Begin(h.env, id, p)
	if r == nil {
		t.Fatalf("Begin(%d) rejected", id)
	}
	r.id = id
	return r
}

// assertDrained checks the table after the event queue has emptied: nothing
// in flight or parked, every allocated record back on the free list, and the
// lifetime counters balanced.
func (h *harness) assertDrained(t *testing.T) {
	t.Helper()
	if o := h.tb.Occupancy(); o.Cap == 0 || o.Free != o.Cap || o.Imbalance() != 0 {
		t.Fatalf("occupancy %+v, want every record free", o)
	}
	if s := h.tb.Stats(); s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut {
		t.Fatalf("stats %+v, want begun == resolved + timedOut and nothing in flight", s)
	}
}

func TestPolicyBudget(t *testing.T) {
	for _, c := range []struct{ retries, want int }{
		{0, DefaultRetries}, {-1, 0}, {-7, 0}, {1, 1}, {24, 24},
	} {
		if got := (Policy{Retries: c.retries}).Budget(); got != c.want {
			t.Errorf("Policy{Retries: %d}.Budget() = %d, want %d", c.retries, got, c.want)
		}
	}
}

// TestBudgetExhaustionMatchesRetryDeadline pins the schedule: an unanswered
// transaction is re-sent Budget() times at the NextRTO instants and fails at
// exactly sim.RetryDeadline, for budgets on both sides of the 8x cap.
func TestBudgetExhaustionMatchesRetryDeadline(t *testing.T) {
	const rto = 100 * time.Millisecond
	for _, retries := range []int{-1, 0, 1, 3, 4, 8, 24} {
		p := Policy{RTO: rto, Retries: retries}
		h := newHarness()
		h.begin(t, 7, p)
		h.env.Run()

		if len(h.expired) != 1 || h.expired[0] != 7 {
			t.Fatalf("retries=%d: expired %v, want [7]", retries, h.expired)
		}
		want := sim.RetryDeadline(rto, p.Budget())
		if h.expireAt != want || p.Deadline() != want {
			t.Errorf("retries=%d: failed at %v (Deadline %v), want %v", retries, h.expireAt, p.Deadline(), want)
		}
		if len(h.resent) != p.Budget() || h.tb.Retransmits() != uint64(p.Budget()) {
			t.Errorf("retries=%d: %d resends (counter %d), want %d", retries, len(h.resent), h.tb.Retransmits(), p.Budget())
		}
		at, cur := time.Duration(0), rto
		for i, got := range h.resent {
			at += cur
			cur = sim.NextRTO(cur, rto)
			if got != at {
				t.Errorf("retries=%d: resend %d at %v, want %v", retries, i, got, at)
			}
		}
		if s := h.tb.Stats(); s.TimedOut != 1 || s.Resolved != 0 {
			t.Errorf("retries=%d: stats %+v", retries, s)
		}
		h.assertDrained(t)
	}
}

// TestTakeBeforeTimerRecyclesOnce answers a transaction while its timer is
// still queued: the record is parked, not freed, the hooks never run for it,
// and the timer recycles it exactly once.
func TestTakeBeforeTimerRecyclesOnce(t *testing.T) {
	h := newHarness()
	h.begin(t, 1, Policy{RTO: time.Second})
	h.env.RunUntil(300 * time.Millisecond)

	got, ok := h.tb.Take(1)
	if !ok || got.id != 1 {
		t.Fatalf("Take = %+v, %v", got, ok)
	}
	if o := h.tb.Occupancy(); o.Parked != 1 || o.InFlight != 0 || o.Free != o.Cap-1 {
		t.Fatalf("after Take: occupancy %+v, want the record parked", o)
	}
	// A transaction begun meanwhile must get a different record.
	h.begin(t, 2, Policy{RTO: time.Second})
	if _, ok := h.tb.Take(2); !ok {
		t.Fatal("second transaction lost")
	}
	h.env.Run()

	if len(h.resent) != 0 || len(h.expired) != 0 {
		t.Fatalf("hooks ran for answered transactions: resent %v expired %v", h.resent, h.expired)
	}
	h.assertDrained(t)
}

// TestUntimedTransaction covers a policy without an RTO: no timer, the record
// is freed the moment it is taken, and it stays in flight until then.
func TestUntimedTransaction(t *testing.T) {
	h := newHarness()
	h.begin(t, 1, Policy{})
	h.env.Run()
	if h.tb.InFlight() != 1 {
		t.Fatal("untimed transaction ended by itself")
	}
	if _, ok := h.tb.Take(1); !ok {
		t.Fatal("Take failed")
	}
	h.assertDrained(t)
}

// TestStaleSubjectEndsTransaction frees the subject of a transaction in
// flight: the next timer fires no resend and fails it at once, well before
// its budget would have run out, and a late answer finds nothing.
func TestStaleSubjectEndsTransaction(t *testing.T) {
	h := newHarness()
	subject, _ := h.subjects.Alloc()
	h.begin(t, 9, Policy{RTO: 100 * time.Millisecond, Retries: 8}).subject = subject

	h.env.RunUntil(150 * time.Millisecond) // one retransmission while the subject lives
	h.subjects.Free(subject)
	h.env.Run()

	if len(h.resent) != 1 {
		t.Fatalf("resent %v, want exactly the one resend before the subject went stale", h.resent)
	}
	if len(h.expired) != 1 || h.expireAt != 300*time.Millisecond {
		t.Fatalf("expired %v at %v, want [9] at the 300ms timer", h.expired, h.expireAt)
	}
	if _, ok := h.tb.Take(9); ok {
		t.Fatal("late answer for a transaction whose subject is gone was accepted")
	}
	h.assertDrained(t)
}

func TestDuplicateKeyRejected(t *testing.T) {
	h := newHarness()
	h.begin(t, 5, Policy{RTO: time.Second})
	if h.tb.Begin(h.env, 5, Policy{RTO: time.Second}) != nil {
		t.Fatal("second Begin under a key in flight was accepted")
	}
	if s := h.tb.Stats(); s.Begun != 1 || s.InFlight != 1 {
		t.Fatalf("stats %+v after rejected duplicate", s)
	}
	// The key is free again once the first transaction has ended.
	h.tb.Take(5)
	h.begin(t, 5, Policy{RTO: time.Second})
	h.tb.Take(5)
	h.env.Run()
	h.assertDrained(t)
}

func TestLateResponseAfterTimeout(t *testing.T) {
	h := newHarness()
	h.begin(t, 3, Policy{RTO: 50 * time.Millisecond, Retries: -1})
	h.env.Run()
	if len(h.expired) != 1 {
		t.Fatalf("expired %v, want [3]", h.expired)
	}
	if _, ok := h.tb.Take(3); ok {
		t.Fatal("Take after timeout returned true")
	}
	if s := h.tb.Stats(); s.Resolved != 0 || s.TimedOut != 1 {
		t.Fatalf("stats %+v: a late answer must not count as resolved", s)
	}
	h.assertDrained(t)
}

// TestExpiredHookMayBeginAgain re-enters the table from the expired hook, the
// way a keepalive failure starts a full registration: the new transaction
// gets its own record and the books still balance.
func TestExpiredHookMayBeginAgain(t *testing.T) {
	env := sim.NewEnv(1)
	var tb *Table[uint32, req]
	retried := false
	tb = New[uint32](
		func(*sim.Env, *req) bool { return true },
		func(env *sim.Env, r *req) {
			if !retried {
				retried = true
				tb.Begin(env, r.id+1, Policy{RTO: 10 * time.Millisecond, Retries: -1}).id = r.id + 1
			}
		},
	)
	tb.Begin(env, 1, Policy{RTO: 10 * time.Millisecond, Retries: -1}).id = 1
	env.Run()
	if s := tb.Stats(); s.Begun != 2 || s.TimedOut != 2 || s.InFlight != 0 {
		t.Fatalf("stats %+v", s)
	}
	if o := tb.Occupancy(); o.Free != o.Cap || o.Imbalance() != 0 {
		t.Fatalf("occupancy %+v", o)
	}
}

// TestSteadyStateAllocatesNothing runs full transaction lifecycles — begin,
// one retransmission, answer, timer recycling — on a warmed table.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	tb := New[uint32](
		func(*sim.Env, *req) bool { return true },
		func(*sim.Env, *req) {},
	)
	policy := Policy{RTO: 10 * time.Millisecond, Retries: 2}
	var id uint32
	cycle := func() {
		for i := 0; i < 8; i++ {
			id++
			tb.Begin(env, id, policy).id = id
		}
		env.RunUntil(env.Now() + 15*time.Millisecond) // first RTO fires: 8 resends
		for i := uint32(0); i < 8; i++ {
			tb.Take(id - i)
		}
		env.Run()
	}
	cycle() // warm the record chunk, the map and the event heap
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("steady-state transaction cycle allocated %.1f objects, want 0", allocs)
	}
	if o := tb.Occupancy(); o.Cap != chunk || o.Free != o.Cap {
		t.Fatalf("occupancy %+v, want one fully free chunk", o)
	}
}
