package sim

import (
	"fmt"
	"testing"
	"time"
)

// benchMsg is a pointer message so Send boxes no payload: the interface
// value holds the same pointer on every iteration.
type benchMsg struct{}

func (*benchMsg) Name() string { return "bench" }

// sinkNode counts deliveries and does nothing else.
type sinkNode struct {
	id NodeID
	n  int
}

func (s *sinkNode) ID() NodeID                            { return s.id }
func (s *sinkNode) Receive(*Env, NodeID, string, Message) { s.n++ }

func newBenchPair() (*Env, *sinkNode) {
	env := NewEnv(1)
	src := &sinkNode{id: "src"}
	dst := &sinkNode{id: "dst"}
	env.AddNode(src)
	env.AddNode(dst)
	env.Connect("src", "dst", "bench", time.Microsecond)
	return env, dst
}

// BenchmarkSendDeliver measures the steady-state cost of one message
// delivery: Send schedules a typed delivery record, Run pops and dispatches
// it. This is the engine's hot path; it must report 0 allocs/op.
func BenchmarkSendDeliver(b *testing.B) {
	env, dst := newBenchPair()
	msg := &benchMsg{}
	// Warm the arena and heap to their steady-state size.
	env.Send("src", "dst", msg)
	env.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Send("src", "dst", msg)
		env.Run()
	}
	if dst.n != b.N+1 {
		b.Fatalf("delivered %d, want %d", dst.n, b.N+1)
	}
}

// BenchmarkSendDeliverFanout stresses heap depth: each iteration schedules a
// burst of deliveries before draining, so sift operations traverse a real
// tree instead of a single slot.
func BenchmarkSendDeliverFanout(b *testing.B) {
	env, dst := newBenchPair()
	msg := &benchMsg{}
	const burst = 64
	for i := 0; i < burst; i++ {
		env.Send("src", "dst", msg)
	}
	env.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			env.Send("src", "dst", msg)
		}
		env.Run()
	}
	b.StopTimer()
	if want := (b.N + 1) * burst; dst.n != want {
		b.Fatalf("delivered %d, want %d", dst.n, want)
	}
}

// BenchmarkTimerChurn measures schedule/dispatch of After timers against a
// populated heap. The callback is pre-bound, so the only per-iteration work
// is the queue churn itself — slot reuse via the free-list keeps it
// allocation-free.
func BenchmarkTimerChurn(b *testing.B) {
	env := NewEnv(1)
	fired := 0
	fn := func() { fired++ }
	// Park background timers far in the future so churn works against a
	// heap with real depth.
	for i := 0; i < 256; i++ {
		env.After(time.Hour+time.Duration(i)*time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.After(time.Microsecond, fn)
		env.Step()
	}
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// TestSendDeliverZeroAlloc is the allocation budget for the delivery hot
// path: once the event arena is warm, a Send + Run cycle must not allocate.
func TestSendDeliverZeroAlloc(t *testing.T) {
	env, dst := newBenchPair()
	msg := &benchMsg{}
	env.Send("src", "dst", msg)
	env.Run()
	allocs := testing.AllocsPerRun(200, func() {
		env.Send("src", "dst", msg)
		env.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state delivery allocated %.1f objects/op, want 0", allocs)
	}
	if dst.n == 0 {
		t.Fatal("no messages delivered")
	}
}

// TestTimerChurnZeroAlloc locks in free-list reuse for the timer path with a
// pre-bound callback.
func TestTimerChurnZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	fn := func() { fired++ }
	env.After(time.Microsecond, fn)
	env.Step()
	allocs := testing.AllocsPerRun(200, func() {
		env.After(time.Microsecond, fn)
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("timer churn allocated %.1f objects/op, want 0", allocs)
	}
}

// newStandingTimers returns an Env whose queue holds depth timers an hour
// or more out, a second apart, so that shorter timers arm and cancel against
// a heap of that depth.
func newStandingTimers(depth int) *Env {
	env := NewEnv(1)
	for i := 0; i < depth; i++ {
		env.After(time.Hour+time.Duration(i)*time.Second, func() {})
	}
	return env
}

func nopArg(any) {}

// BenchmarkTimerArmCancel measures the transaction tables' lossless common
// case — arm a retransmission timer, cancel it when the answer arrives —
// against standing queues of the depths the stack runs at. Each op arms one
// timer and cancels the one armed 64 ops earlier, so a cancel finds its
// entry wherever the arms since then have left it, not at the tail of the
// heap; deadlines stride through the standing timers' range so arms land at
// every level.
func BenchmarkTimerArmCancel(b *testing.B) {
	for _, depth := range []int{200, 25000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			env := newStandingTimers(depth)
			var ring [64]Timer
			arm := func(i int) Timer {
				return env.AfterArg(time.Hour+time.Duration(i*7919%depth)*time.Second, nopArg, nil)
			}
			for i := range ring {
				ring[i] = arm(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := &ring[i%len(ring)]
				if !env.Cancel(*slot) {
					b.Fatal("Cancel of a pending timer reported false")
				}
				*slot = arm(i)
			}
			b.StopTimer()
			if env.Pending() != depth+len(ring) {
				b.Fatalf("queue holds %d events, want %d", env.Pending(), depth+len(ring))
			}
		})
	}
}

// TestCancelZeroAlloc is the allocation budget for an answered transaction's
// timer: once the arena is warm, an arm + cancel cycle must not allocate.
func TestCancelZeroAlloc(t *testing.T) {
	env := newStandingTimers(200)
	env.Cancel(env.AfterArg(time.Second, nopArg, nil))
	allocs := testing.AllocsPerRun(200, func() {
		if !env.Cancel(env.AfterArg(time.Second, nopArg, nil)) {
			t.Fatal("Cancel of a pending timer reported false")
		}
	})
	if allocs != 0 {
		t.Fatalf("timer arm + cancel allocated %.1f objects/op, want 0", allocs)
	}
	if env.Pending() != 200 {
		t.Fatalf("queue holds %d events, want the standing 200", env.Pending())
	}
}

// hubNode bounces every delivery straight back to its sender, so a world of
// hubNodes keeps exactly as many events queued as tokens were injected.
type hubNode struct{ id NodeID }

func (h *hubNode) ID() NodeID { return h.id }
func (h *hubNode) Receive(env *Env, from NodeID, _ string, msg Message) {
	env.Send(h.id, from, msg)
}

// newDeepHub builds a hub with 64 spokes on equal-latency links and injects
// depth tokens at time zero. Every event then ties on its timestamp with
// the rest of its generation, the queue stands depth entries deep forever,
// and every second Send resolves its link among the hub's 64 neighbours —
// the engine as the full stack drives it, which one token in an empty queue
// does not show.
func newDeepHub(depth int) *Env {
	const spokes = 64
	env := NewEnv(1)
	env.AddNode(&hubNode{id: "hub"})
	ids := make([]NodeID, spokes)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("spoke-%02d", i))
		env.AddNode(&hubNode{id: ids[i]})
		env.Connect("hub", ids[i], "bench", time.Millisecond)
	}
	msg := &benchMsg{}
	for i := 0; i < depth; i++ {
		env.Send("hub", ids[i%spokes], msg)
	}
	// Two generations: tokens now leave from hub and spoke dispatches, and
	// the arena is at its high-water mark.
	for i := 0; i < 2*depth; i++ {
		env.Step()
	}
	return env
}

// BenchmarkSendDeliverDeep measures one pop + dispatch + Send + push against
// a standing queue at the two depths the stack runs at: ~200 entries (the
// media relay) and ~25,000 (an attach storm).
func BenchmarkSendDeliverDeep(b *testing.B) {
	for _, depth := range []int{200, 25000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			env := newDeepHub(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.Step()
			}
			b.StopTimer()
			if env.Pending() != depth {
				b.Fatalf("queue holds %d events, want a standing %d", env.Pending(), depth)
			}
		})
	}
}

// TestSendDeliverDeepZeroAlloc is the allocation budget for a send made
// during a dispatch — the adjacency lookup — against a deep queue.
func TestSendDeliverDeepZeroAlloc(t *testing.T) {
	env := newDeepHub(200)
	allocs := testing.AllocsPerRun(1000, func() { env.Step() })
	if allocs != 0 {
		t.Fatalf("deep-queue delivery allocated %.1f objects/op, want 0", allocs)
	}
}
