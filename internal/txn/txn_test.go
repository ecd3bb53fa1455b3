package txn

import (
	"math/rand"
	"runtime"
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

// assertDrained checks a table whose transactions have all ended: nothing in
// flight, every allocated record back on the free list, no timer left in the
// queue, and the lifetime counters balanced.
func (h *harness) assertDrained(t *testing.T) {
	t.Helper()
	if o := h.tb.Stats(); o.Cap == 0 || o.Free != o.Cap || o.Imbalance != 0 {
		t.Fatalf("occupancy %+v, want every record free", o)
	}
	if s := h.tb.Stats(); s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut {
		t.Fatalf("stats %+v, want begun == resolved + timedOut and nothing in flight", s)
	}
	if n := h.env.Pending(); n != 0 {
		t.Fatalf("%d events still queued behind a drained table", n)
	}
}

// counters is s without what the table holds: the lifetime counters and
// InFlight, which a model can predict.
func counters(s Stats) Stats {
	s.Cap, s.Free, s.Imbalance, s.Bytes = 0, 0, 0, 0
	return s
}

// TestTotalAddsImbalances sums two tables whose books are off in opposite
// directions: a record missing from one, a record too many in the other. A
// sum of their Cap − Free − InFlight would read zero; Total reads both.
func TestTotalAddsImbalances(t *testing.T) {
	a, b := newHarness(), newHarness()
	a.begin(t, 1, Policy{})
	b.begin(t, 1, Policy{})
	a.tb.cap++
	b.tb.idle++
	sa, sb := a.tb.Stats(), b.tb.Stats()
	got := Total(func(report func(string, Stats)) { report("a", sa); report("b", sb) })
	if sa.Imbalance != 1 || sb.Imbalance != 1 || got.Imbalance != 2 {
		t.Fatalf("imbalances %d + %d = %d, want 1 + 1 = 2", sa.Imbalance, sb.Imbalance, got.Imbalance)
	}
	if got.InFlight != 2 || got.Begun != 2 || got.Cap != sa.Cap+sb.Cap || got.Bytes != sa.Bytes+sb.Bytes || got.Bytes == 0 {
		t.Fatalf("total %+v of %+v and %+v", got, sa, sb)
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
		if len(h.resent) != p.Budget() || h.tb.Stats().Retransmits != uint64(p.Budget()) {
			t.Errorf("retries=%d: %d resends (counter %d), want %d", retries, len(h.resent), h.tb.Stats().Retransmits, p.Budget())
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

// TestTakeCancelsTimer answers a transaction while its timer is still queued:
// the timer leaves the queue and the record is free at once, the next
// transaction reuses that record under a new key, and the old deadline passes
// with neither hook firing.
func TestTakeCancelsTimer(t *testing.T) {
	h := newHarness()
	h.begin(t, 1, Policy{RTO: time.Second})
	h.env.RunUntil(300 * time.Millisecond)
	if n := h.env.Pending(); n != 1 {
		t.Fatalf("%d events queued for one armed transaction, want 1", n)
	}

	got, ok := h.tb.Take(1)
	if !ok || got.id != 1 {
		t.Fatalf("Take = %+v, %v", got, ok)
	}
	if n := h.env.Pending(); n != 0 {
		t.Fatalf("after Take: %d events queued, want the timer cancelled", n)
	}
	if o := h.tb.Stats(); o.InFlight != 0 || o.Free != o.Cap {
		t.Fatalf("after Take: occupancy %+v, want the record free", o)
	}

	// The free list is LIFO: this transaction lives in the record the first
	// one just left, with its own timer 1.3 s out.
	second := h.begin(t, 2, Policy{RTO: time.Second, Retries: -1})
	h.env.RunUntil(1100 * time.Millisecond) // the first transaction's deadline
	if len(h.resent) != 0 || len(h.expired) != 0 {
		t.Fatalf("hooks ran at a cancelled deadline: resent %v expired %v", h.resent, h.expired)
	}
	if second.id != 2 || h.tb.InFlight() != 1 {
		t.Fatalf("second transaction disturbed: %+v, %d in flight", *second, h.tb.InFlight())
	}
	h.env.Run()
	if len(h.expired) != 1 || h.expired[0] != 2 || h.expireAt != 1300*time.Millisecond {
		t.Fatalf("expired %v at %v, want [2] at its own deadline", h.expired, h.expireAt)
	}
	h.assertDrained(t)
}

// TestTakeInsideResend ends a transaction from its own resend hook, as a
// plane does when retransmitting finds the procedure already over: whichever
// way the hook then answers, the timer must leave the freed record alone —
// no re-arm, no expiry, no second free — including when the hook has already
// begun the next transaction in that record.
func TestTakeInsideResend(t *testing.T) {
	for _, c := range []struct {
		name          string
		answer, again bool
	}{
		{"reports resent", true, false},
		{"reports failure", false, false},
		{"begins again under the same key", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			policy := Policy{RTO: 100 * time.Millisecond, Retries: 2}
			var tb *Table[uint32, req]
			took, expired := 0, 0
			tb = New[uint32](
				func(env *sim.Env, r *req) bool {
					if took > 0 {
						return true
					}
					took++
					if got, ok := tb.Take(r.id); !ok || got.id != 7 {
						t.Fatalf("Take inside resend = %+v, %v", got, ok)
					}
					if c.again {
						tb.Begin(env, 7, policy).id = 7
					}
					return c.answer
				},
				func(*sim.Env, *req) { expired++ },
			)
			tb.Begin(env, 7, policy).id = 7
			env.RunUntil(150 * time.Millisecond)

			want := Stats{Begun: 1, Resolved: 1}
			pending := 0
			if c.again {
				// The second transaction owns the record now, with its full
				// budget and exactly one timer.
				want = Stats{Begun: 2, Resolved: 1, InFlight: 1}
				pending = 1
			}
			if s := counters(tb.Stats()); s != want {
				t.Fatalf("stats %+v, want %+v", s, want)
			}
			if o := tb.Stats(); o.Free != o.Cap-want.InFlight || o.Imbalance != 0 {
				t.Fatalf("occupancy %+v", o)
			}
			if env.Pending() != pending || expired != 0 {
				t.Fatalf("%d events queued (want %d), expired ran %d times", env.Pending(), pending, expired)
			}
			env.Run()
			if s := tb.Stats(); s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut || s.Retransmits != uint64(2*pending) {
				t.Fatalf("final stats %+v", s)
			}
		})
	}
}

// TestTableMatchesModel drives one table and a map-and-deadline model with
// the same random Begin/Take/advance-time script, timed and untimed policies
// mixed, keys drawn from a small space so duplicates, late answers and
// record reuse are common. Now and then a burst of fresh keys pushes the
// table below or above the release floor, and a drain step (or the burst's
// own timers) empties it again. After every step the table's books balance,
// the event queue holds exactly one timer per timed transaction in flight,
// an empty table holds no more than the floor, and every hook call is one
// the model predicted at that instant — in particular none for a transaction
// already taken.
func TestTableMatchesModel(t *testing.T) {
	const rto = 10 * time.Millisecond
	type entry struct {
		next time.Duration // next timer instant; untimed if rto is 0
		rto  time.Duration
		left int
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := sim.NewEnv(seed)
		model := map[uint32]*entry{}
		var resolved, timedOut, retransmits uint64
		var tb *Table[uint32, req]
		// due checks a hook call against the model's entry for that key.
		due := func(hook string, env *sim.Env, r *req) *entry {
			m := model[r.id]
			if m == nil || m.rto == 0 || m.next != env.Now() {
				t.Fatalf("seed %d: %s(%d) at %v, model has %+v", seed, hook, r.id, env.Now(), m)
			}
			return m
		}
		tb = New[uint32](
			func(env *sim.Env, r *req) bool {
				m := due("resend", env, r)
				if m.left == 0 {
					t.Fatalf("seed %d: resend(%d) with no budget left", seed, r.id)
				}
				m.left--
				m.rto = sim.NextRTO(m.rto, rto)
				m.next += m.rto
				retransmits++
				return true
			},
			func(env *sim.Env, r *req) {
				if m := due("expired", env, r); m.left != 0 {
					t.Fatalf("seed %d: expired(%d) with %d retransmissions left", seed, r.id, m.left)
				}
				delete(model, r.id)
				timedOut++
			},
		)
		var begun uint64
		var step int
		begin := func(key uint32) {
			p := Policy{RTO: rto, Retries: rng.Intn(4) - 1}
			if rng.Intn(8) == 0 {
				p.RTO = 0
			}
			r := tb.Begin(env, key, p)
			if _, dup := model[key]; dup != (r == nil) {
				t.Fatalf("seed %d step %d: Begin(%d) = %v, model in flight: %v", seed, step, key, r, dup)
			}
			if r != nil {
				r.id = key
				begun++
				model[key] = &entry{next: env.Now() + p.RTO, rto: p.RTO, left: p.Budget()}
			}
		}
		take := func(key uint32) {
			got, ok := tb.Take(key)
			if _, want := model[key]; ok != want || (ok && got.id != key) {
				t.Fatalf("seed %d step %d: Take(%d) = %+v, %v; model in flight: %v", seed, step, key, got, ok, want)
			}
			if ok {
				delete(model, key)
				resolved++
			}
		}
		nextBurst := uint32(1000)
		for step = 0; step < 20000; step++ {
			key := uint32(rng.Intn(48))
			switch op := rng.Intn(400); {
			case op < 2: // a burst: half stay under the release floor, half cross it
				n := uint32(releaseFloor/8 + op*(2*releaseFloor-releaseFloor/8))
				for ; n > 0; n-- {
					begin(nextBurst)
					nextBurst++
				}
			case op < 6: // every answer arrives: drain to zero
				for key := range model {
					take(key)
				}
			case op < 160:
				begin(key)
			case op < 320:
				take(key)
			default:
				env.RunUntil(env.Now() + time.Duration(rng.Intn(25))*time.Millisecond)
			}
			armed := 0
			for _, m := range model {
				if m.rto > 0 {
					armed++
				}
			}
			want := Stats{Begun: begun, Resolved: resolved, TimedOut: timedOut, Retransmits: retransmits, InFlight: len(model)}
			if s := counters(tb.Stats()); s != want || s.Begun != s.Resolved+s.TimedOut+uint64(s.InFlight) {
				t.Fatalf("seed %d step %d: stats %+v, model %+v", seed, step, s, want)
			}
			if o := tb.Stats(); o.Imbalance != 0 || o.InFlight != len(model) || (o.InFlight == 0 && o.Cap > releaseFloor) {
				t.Fatalf("seed %d step %d: occupancy %+v, model holds %d", seed, step, o, len(model))
			}
			if env.Pending() != armed {
				t.Fatalf("seed %d step %d: %d events queued, %d timed transactions in flight", seed, step, env.Pending(), armed)
			}
		}
		for key := range model {
			if model[key].rto == 0 {
				tb.Take(key)
				delete(model, key)
			}
		}
		env.Run()
		if s := tb.Stats(); len(model) != 0 || s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut {
			t.Fatalf("seed %d: drained with model %v, stats %+v", seed, model, s)
		}
		if o := tb.Stats(); o.Free != o.Cap || env.Pending() != 0 {
			t.Fatalf("seed %d: drained with occupancy %+v, %d events queued", seed, o, env.Pending())
		}
	}
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
	if o := tb.Stats(); o.Free != o.Cap || o.Imbalance != 0 {
		t.Fatalf("occupancy %+v", o)
	}
}

// TestSteadyStateAllocatesNothing runs full transaction lifecycles — begin,
// one retransmission, answer, timer cancel — on a warmed table.
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
	if o := tb.Stats(); o.Cap != chunk || o.Free != o.Cap {
		t.Fatalf("occupancy %+v, want one fully free chunk", o)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDrainedTableReleasesRecords runs two 5,000-transaction storms through
// one table. The first is answered: the drained table is back at the floor —
// books balanced, queue empty, and a collected heap no bigger than one full
// chunk over what it was before the storm. The second is left to its timers
// on the regrown table: every transaction is re-sent and expires exactly
// when the schedule says, and the table drains to the floor again, this time
// from the timer.
func TestDrainedTableReleasesRecords(t *testing.T) {
	const storm = 5000
	policy := Policy{RTO: 100 * time.Millisecond, Retries: 1}
	h := newHarness()
	atFloor := func(when string) {
		t.Helper()
		h.assertDrained(t)
		if o := h.tb.Stats(); o.Cap > releaseFloor {
			t.Fatalf("%s: drained table holds %d records, floor is %d", when, o.Cap, releaseFloor)
		}
	}
	answered := func() {
		for id := uint32(1); id <= storm; id++ {
			h.begin(t, id, policy)
		}
		if o := h.tb.Stats(); o.InFlight != storm || o.Cap < storm || h.env.Pending() != storm {
			t.Fatalf("mid-storm: occupancy %+v, %d timers queued", o, h.env.Pending())
		}
		for id := uint32(1); id <= storm; id++ {
			if got, ok := h.tb.Take(id); !ok || got.id != id {
				t.Fatalf("Take(%d) = %+v, %v", id, got, ok)
			}
		}
	}
	// A storm on a table that is then discarded grows the event queue's own
	// arrays, which are not this table's to give back.
	answered()
	h.tb = New[uint32](h.tb.resend, h.tb.expired)
	before := liveHeap()
	answered()
	atFloor("answered storm")
	oneChunk := float64(releaseFloor * RecordSize[uint32, req]())
	if grew := float64(liveHeap()) - float64(before); grew > 1.2*oneChunk && !raceEnabled {
		t.Errorf("answered storm left %.0f B on the heap, want at most the floor's %.0f B", grew, oneChunk)
	}

	start := h.env.Now()
	for id := uint32(1); id <= storm; id++ {
		h.begin(t, id, policy)
	}
	h.env.Run()
	if len(h.resent) != storm || len(h.expired) != storm {
		t.Fatalf("unanswered storm: %d resends, %d expiries, want %d each", len(h.resent), len(h.expired), storm)
	}
	for i, at := range h.resent {
		if at != start+policy.RTO || h.expired[i] != uint32(i+1) {
			t.Fatalf("transaction %d: re-sent at %v, expiry %d of id %d", i+1, at, i, h.expired[i])
		}
	}
	if h.expireAt != start+policy.Deadline() {
		t.Fatalf("last expiry at %v, want %v", h.expireAt, start+policy.Deadline())
	}
	if s := h.tb.Stats(); s.Begun != 2*storm || s.Resolved != storm || s.TimedOut != storm || s.Retransmits != storm {
		t.Fatalf("stats %+v", s)
	}
	atFloor("expired storm")
}

// TestSmallBurstsNeverRelease is the guard for worlds of a few hundred
// subscribers: a table cycling between empty and 600 in flight, under the
// floor, keeps what its first burst allocated and never allocates again.
func TestSmallBurstsNeverRelease(t *testing.T) {
	h := newHarness()
	policy := Policy{RTO: time.Second}
	cycle := func() {
		for id := uint32(0); id < 600; id++ {
			h.tb.Begin(h.env, id, policy).id = id
		}
		for id := uint32(0); id < 600; id++ {
			h.tb.Take(id)
		}
	}
	cycle()
	held := h.tb.Stats().Cap
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("a 600-transaction burst on a warmed table allocated %.1f objects, want 0", allocs)
	}
	if o := h.tb.Stats(); o.Cap != held || held > releaseFloor {
		t.Fatalf("occupancy %+v after 1,000 bursts, first burst held %d", o, held)
	}
	h.assertDrained(t)
}

// TestReleaseFromInsideHook drains a table grown past the floor from its own
// timer hooks. resend taking its own transaction — the last one — releases
// while the timer still holds that record, wherever it lived: in a chunk the
// table keeps (begun first) or in one it drops (begun last). expired taking
// the last other transaction must not release under the record it was handed:
// the payload stays intact until the hook returns. Run it under -race too.
func TestReleaseFromInsideHook(t *testing.T) {
	const burst, own, other = 2 * releaseFloor, 7, 8
	timed := Policy{RTO: 100 * time.Millisecond}
	for _, c := range []struct {
		name       string
		ownFirst   bool
		retries    int // of the timed transaction
		takeInHook uint32
	}{
		{"resend takes its own, kept chunk", true, 1, own},
		{"resend takes its own, dropped chunk", false, 1, own},
		{"expired takes the last other", true, -1, other},
		{"expired takes the last other, dropped chunk", false, -1, other},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			var tb *Table[uint32, req]
			hooks := 0
			hook := func(_ *sim.Env, r *req) {
				hooks++
				if got, ok := tb.Take(c.takeInHook); !ok || got.id != c.takeInHook {
					t.Fatalf("Take(%d) inside the hook = %+v, %v", c.takeInHook, got, ok)
				}
				if c.takeInHook != own && r.id != own {
					t.Fatalf("payload handed to expired reads %+v after the hook drained the table", *r)
				}
			}
			tb = New[uint32](
				func(env *sim.Env, r *req) bool { hook(env, r); return true },
				hook,
			)
			p := timed
			p.Retries = c.retries
			if c.ownFirst {
				tb.Begin(env, own, p).id = own
			}
			for id := uint32(100); id < 100+burst; id++ {
				tb.Begin(env, id, Policy{}).id = id
			}
			if !c.ownFirst {
				tb.Begin(env, own, p).id = own
			}
			if c.takeInHook == other {
				tb.Begin(env, other, Policy{}).id = other
			}
			for id := uint32(100); id < 100+burst; id++ {
				tb.Take(id)
			}
			if o := tb.Stats(); o.Cap <= releaseFloor || o.InFlight == 0 {
				t.Fatalf("before the timer: occupancy %+v, want a grown table still in use", o)
			}
			env.Run()
			s := tb.Stats()
			if hooks != 1 || s.Cap > releaseFloor || s.Free != s.Cap || s.Imbalance != 0 || env.Pending() != 0 {
				t.Fatalf("%d hook calls, occupancy %+v, %d events queued", hooks, s, env.Pending())
			}
			if s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut || s.Retransmits != 0 {
				t.Fatalf("stats %+v", s)
			}
			// The table is whole: it takes the next burst.
			for id := uint32(100); id < 100+burst; id++ {
				tb.Begin(env, id, Policy{}).id = id
			}
			if tb.InFlight() != burst || tb.Stats().Imbalance != 0 {
				t.Fatalf("after regrowth: occupancy %+v", tb.Stats())
			}
		})
	}
}
