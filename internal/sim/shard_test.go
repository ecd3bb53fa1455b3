package sim

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// dumpTracer records deliveries as formatted lines so tests can compare
// whole traces byte-for-byte across shard counts. (The trace package's
// Recorder lives downstream of sim, so shard tests keep a local one.)
type dumpTracer struct {
	lines []string
}

func (d *dumpTracer) Trace(at time.Duration, from, to NodeID, iface string, msg Message) {
	d.lines = append(d.lines, fmt.Sprintf("%v %s->%s [%s] %s", at, from, to, iface, msg.Name()))
}

func (d *dumpTracer) dump() string { return strings.Join(d.lines, "\n") }

// relayNode forwards or counts without recording, so allocation tests see
// only the engine's own behavior.
type relayNode struct {
	id    NodeID
	onMsg func(env *Env, from NodeID, iface string, msg Message)
}

func (n *relayNode) ID() NodeID { return n.id }
func (n *relayNode) Receive(env *Env, from NodeID, iface string, msg Message) {
	if n.onMsg != nil {
		n.onMsg(env, from, iface, msg)
	}
}

// buildFanIn builds `senders` nodes spread across shards (when shards > 1),
// each wired to a common sink with the same latency, and schedules every
// sender to fire a burst of messages at identical timestamps. The sink's
// arrival order exercises cross-shard same-timestamp tie-breaking.
func buildFanIn(shards, senders int) (*Env, *recorderNode, *dumpTracer) {
	env := NewShardedEnv(42, shards)
	tr := &dumpTracer{}
	env.SetTracer(tr)
	sink := &recorderNode{id: "sink"}
	env.AddNode(sink)
	for i := 0; i < senders; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		env.AddNode(&recorderNode{id: id})
		env.Connect(id, "sink", "tie", 3*time.Millisecond)
		if shards > 1 {
			env.AssignShard(id, 1+i%(shards-1))
		}
	}
	for i := 0; i < senders; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		// AfterNode pins the burst to the sender's own context and shard,
		// so the sends race across shards at identical virtual times.
		env.AfterNode(id, 10*time.Millisecond, func(sh *Env) {
			for k := 0; k < 3; k++ {
				sh.Send(id, "sink", testMsg{fmt.Sprintf("m-%s-%d", id, k)})
			}
		})
	}
	return env, sink, tr
}

func TestCrossShardSameTimestampTieBreak(t *testing.T) {
	var ref []string
	var refTrace string
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			env, sink, tr := buildFanIn(shards, 6)
			env.Run()
			if shards == 1 {
				ref = append([]string(nil), sink.got...)
				refTrace = tr.dump()
				if len(ref) != 18 {
					t.Fatalf("reference run delivered %d messages, want 18", len(ref))
				}
				return
			}
			if got := strings.Join(sink.got, ","); got != strings.Join(ref, ",") {
				t.Fatalf("shards=%d delivery order diverged:\n got %s\nwant %s",
					shards, got, strings.Join(ref, ","))
			}
			if tr.dump() != refTrace {
				t.Fatalf("shards=%d trace diverged:\n%s\nvs\n%s", shards, tr.dump(), refTrace)
			}
		})
	}
}

// watchdog is a node that restarts a 5 ms timer on every message and reports
// to the sender when it runs out — a transaction table's use of the queue in
// miniature.
type watchdog struct {
	id, peer  NodeID
	env       *Env
	timer     Timer
	cancelled int
	expired   int
}

func (w *watchdog) ID() NodeID { return w.id }
func (w *watchdog) Receive(env *Env, from NodeID, _ string, _ Message) {
	w.env, w.peer = env, from
	if env.Cancel(w.timer) {
		w.cancelled++
	}
	w.timer = env.AfterArg(5*time.Millisecond, w.expire, nil)
}

func (w *watchdog) expire(any) {
	w.expired++
	w.env.Send(w.id, w.peer, testMsg{"timeout"})
}

// TestShardedCancel arms and cancels timers on a shard other than the root
// view's: pings 2 ms apart each cancel the timer the one before armed, two
// 20 ms silences let it run out, and the trace — which shows a timeout
// exactly where a timer fired — is identical at shards 1 and 2.
func TestShardedCancel(t *testing.T) {
	var refTrace string
	for _, shards := range []int{1, 2} {
		env := NewShardedEnv(9, shards)
		tr := &dumpTracer{}
		env.SetTracer(tr)
		dog := &watchdog{id: "dog"}
		env.AddNode(&recorderNode{id: "src"})
		env.AddNode(dog)
		env.Connect("src", "dog", "wd", time.Millisecond)
		if shards > 1 {
			env.AssignShard("dog", 1)
		}
		at := time.Duration(0)
		for i := 0; i < 30; i++ {
			at += 2 * time.Millisecond
			if i == 10 || i == 20 {
				at += 20 * time.Millisecond
			}
			env.AfterNode("src", at, func(sh *Env) { sh.Send("src", "dog", testMsg{"ping"}) })
		}
		end := env.Run()

		// 30 pings arm 30 timers: three run out (two silences and the end),
		// the other 27 are cancelled by the next ping.
		if dog.cancelled != 27 || dog.expired != 3 || env.Pending() != 0 {
			t.Fatalf("shards=%d: %d cancelled, %d expired, %d pending; want 27, 3, 0",
				shards, dog.cancelled, dog.expired, env.Pending())
		}
		if want := at + 7*time.Millisecond; end != want {
			t.Fatalf("shards=%d: quiesced at %v, want %v (last ping + latency + timeout + latency)", shards, end, want)
		}
		if shards == 1 {
			refTrace = tr.dump()
			if n := strings.Count(refTrace, "timeout"); n != 3 {
				t.Fatalf("reference trace shows %d timeouts, want 3:\n%s", n, refTrace)
			}
		} else if tr.dump() != refTrace {
			t.Fatalf("shards=%d trace diverged:\n%s\nvs\n%s", shards, tr.dump(), refTrace)
		}
	}
}

func TestSameTimestampOrderFollowsEventKey(t *testing.T) {
	// All bursts fire at t=10ms and arrive at t=13ms; the total order at
	// equal timestamps is (context index, per-context counter): senders in
	// registration order, each sender's messages in send order — no matter
	// which shards the senders live on.
	env, sink, _ := buildFanIn(4, 4)
	env.Run()
	var want []string
	for i := 0; i < 4; i++ {
		for k := 0; k < 3; k++ {
			want = append(want, fmt.Sprintf("m-n%d-%d", i, k))
		}
	}
	if got := strings.Join(sink.got, ","); got != strings.Join(want, ",") {
		t.Fatalf("arrival order = %s, want %s", got, strings.Join(want, ","))
	}
	for _, at := range sink.gotAt {
		if at != 13*time.Millisecond {
			t.Fatalf("arrival at %v, want 13ms", at)
		}
	}
}

func TestPendingSumsAcrossShards(t *testing.T) {
	env := NewShardedEnv(7, 4)
	for i := 0; i < 4; i++ {
		id := NodeID(fmt.Sprintf("p%d", i))
		env.AddNode(&recorderNode{id: id})
		env.AssignShard(id, i)
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d on empty env", env.Pending())
	}
	for i := 0; i < 4; i++ {
		id := NodeID(fmt.Sprintf("p%d", i))
		env.AfterNode(id, time.Duration(i+1)*time.Millisecond, func(*Env) {})
		env.AfterNode(id, time.Duration(i+1)*time.Millisecond, func(*Env) {})
	}
	if env.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8 across 4 shards", env.Pending())
	}
	env.Run()
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", env.Pending())
	}
}

func TestStepPicksGlobalMinimumAcrossShards(t *testing.T) {
	env := NewShardedEnv(7, 3)
	var order []string
	ids := []NodeID{"s0", "s1", "s2"}
	for i, id := range ids {
		env.AddNode(&recorderNode{id: id})
		env.AssignShard(id, i)
	}
	// Deliberately schedule out of shard order: the earliest event lives on
	// shard 2, then shard 0; the two same-time events at 3ms break the tie
	// on the event key, which orders s1 (lower context index) before s2.
	env.AfterNode("s2", 1*time.Millisecond, func(*Env) { order = append(order, "s2@1") })
	env.AfterNode("s0", 2*time.Millisecond, func(*Env) { order = append(order, "s0@2") })
	env.AfterNode("s1", 3*time.Millisecond, func(*Env) { order = append(order, "s1@3") })
	env.AfterNode("s2", 3*time.Millisecond, func(*Env) { order = append(order, "s2@3") })

	want := []string{"s2@1", "s0@2", "s1@3", "s2@3"}
	for i, w := range want {
		if !env.Step() {
			t.Fatalf("Step %d: no event, want %s", i, w)
		}
		if order[len(order)-1] != w {
			t.Fatalf("Step %d ran %s, want %s", i, order[len(order)-1], w)
		}
	}
	if env.Step() {
		t.Fatal("Step returned true on drained env")
	}
	if env.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v after stepping, want 3ms", env.Now())
	}
}

func TestStepInterleavedWithShardedRunUntil(t *testing.T) {
	env := NewShardedEnv(9, 2)
	a := &recorderNode{id: "a"}
	b := &recorderNode{id: "b"}
	env.AddNode(a)
	env.AddNode(b)
	env.Connect("a", "b", "x", 2*time.Millisecond)
	env.AssignShard("b", 1)
	for i := 0; i < 4; i++ {
		env.AfterNode("a", time.Duration(i)*time.Millisecond, func(sh *Env) {
			sh.Send("a", "b", testMsg{"tick"})
		})
	}
	if !env.Step() { // runs the t=0 timer on shard 0
		t.Fatal("Step found no event")
	}
	env.RunUntil(2 * time.Millisecond) // timers at 1ms/2ms fire; only the t=0 send has arrived
	if got := len(b.got); got != 1 {
		t.Fatalf("b received %d messages by 2ms, want 1", got)
	}
	env.Run()
	if got := len(b.got); got != 4 {
		t.Fatalf("b received %d messages total, want 4", got)
	}
}

func TestShardedRunUntilIdleAdvancesClock(t *testing.T) {
	env := NewShardedEnv(3, 4)
	env.RunUntil(50 * time.Millisecond)
	if env.Now() != 50*time.Millisecond {
		t.Fatalf("Now = %v, want 50ms (idle bounded run advances the clock)", env.Now())
	}
	env.RunUntil(10 * time.Millisecond) // stale deadline must not move time backwards
	if env.Now() != 50*time.Millisecond {
		t.Fatalf("Now = %v after stale deadline, want 50ms", env.Now())
	}
}

func TestShardedRunUntilDeadlineExactlyOnEvent(t *testing.T) {
	env := NewShardedEnv(3, 2)
	env.AddNode(&recorderNode{id: "n"})
	env.AssignShard("n", 1)
	fired := false
	env.AfterNode("n", 10*time.Millisecond, func(*Env) { fired = true })
	env.RunUntil(10 * time.Millisecond)
	if !fired {
		t.Fatal("event exactly at the deadline did not fire")
	}
	if env.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", env.Now())
	}
}

func TestIndependentIslandsQuiesce(t *testing.T) {
	// No cross-shard links: lookahead is unbounded and each shard runs to
	// quiescence in a single window.
	env := NewShardedEnv(5, 2)
	for s := 0; s < 2; s++ {
		a := NodeID(fmt.Sprintf("a%d", s))
		b := NodeID(fmt.Sprintf("b%d", s))
		env.AddNode(&recorderNode{id: a})
		env.AddNode(&recorderNode{id: b})
		env.Connect(a, b, "isl", time.Millisecond)
		env.AssignShard(a, s)
		env.AssignShard(b, s)
	}
	for s := 0; s < 2; s++ {
		a := NodeID(fmt.Sprintf("a%d", s))
		b := NodeID(fmt.Sprintf("b%d", s))
		env.AfterNode(a, 0, func(sh *Env) { sh.Send(a, b, testMsg{"hi"}) })
	}
	end := env.Run()
	if end != time.Millisecond {
		t.Fatalf("quiesced at %v, want 1ms", end)
	}
	if env.Delivered() != 2 {
		t.Fatalf("Delivered = %d, want 2", env.Delivered())
	}
}

func TestZeroLatencyCrossShardLinkPanics(t *testing.T) {
	env := NewShardedEnv(1, 2)
	env.AddNode(&recorderNode{id: "x"})
	env.AddNode(&recorderNode{id: "y"})
	env.Connect("x", "y", "bad", 0)
	env.AssignShard("y", 1)
	env.After(time.Millisecond, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil did not panic on zero-latency cross-shard link")
		}
	}()
	env.Run()
}

func TestAssignShardValidation(t *testing.T) {
	t.Run("unknown node", func(t *testing.T) {
		env := NewShardedEnv(1, 2)
		defer mustPanic(t, "unknown node")
		env.AssignShard("ghost", 1)
	})
	t.Run("shard out of range", func(t *testing.T) {
		env := NewShardedEnv(1, 2)
		env.AddNode(&recorderNode{id: "n"})
		defer mustPanic(t, "shard out of range")
		env.AssignShard("n", 2)
	})
	t.Run("after start", func(t *testing.T) {
		env := NewShardedEnv(1, 2)
		env.AddNode(&recorderNode{id: "n"})
		env.Run()
		defer mustPanic(t, "assign after start")
		env.AssignShard("n", 1)
	})
	t.Run("with pending events", func(t *testing.T) {
		env := NewShardedEnv(1, 2)
		env.AddNode(&recorderNode{id: "n"})
		env.After(time.Millisecond, func() {})
		defer mustPanic(t, "assign with pending events")
		env.AssignShard("n", 1)
	})
}

func mustPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", what)
	}
}

func TestAfterNodeCrossShardDuringRunPanics(t *testing.T) {
	env := NewShardedEnv(1, 2)
	env.AddNode(&recorderNode{id: "x"})
	env.AddNode(&recorderNode{id: "y"})
	env.Connect("x", "y", "l", time.Millisecond)
	env.AssignShard("y", 1)
	panicked := make(chan bool, 1)
	env.AfterNode("x", 0, func(sh *Env) {
		defer func() { panicked <- recover() != nil }()
		sh.AfterNode("y", time.Millisecond, func(*Env) {})
	})
	env.Run()
	if !<-panicked {
		t.Fatal("cross-shard AfterNode during a run did not panic")
	}
}

func TestPerNodeRandStreamsMatchAcrossShardCounts(t *testing.T) {
	draw := func(shards int) string {
		env := NewShardedEnv(1234, shards)
		var mu sync.Mutex
		outs := make(map[NodeID][]int64)
		for i := 0; i < 4; i++ {
			id := NodeID(fmt.Sprintf("r%d", i))
			env.AddNode(&recorderNode{id: id})
			if shards > 1 {
				env.AssignShard(id, i%shards)
			}
		}
		for i := 0; i < 4; i++ {
			id := NodeID(fmt.Sprintf("r%d", i))
			env.AfterNode(id, time.Millisecond, func(sh *Env) {
				v := sh.Rand().Int63()
				mu.Lock()
				outs[id] = append(outs[id], v, sh.Rand().Int63())
				mu.Unlock()
			})
		}
		env.Run()
		var parts []string
		for i := 0; i < 4; i++ {
			parts = append(parts, fmt.Sprint(outs[NodeID(fmt.Sprintf("r%d", i))]))
		}
		return strings.Join(parts, ";")
	}
	ref := draw(1)
	for _, s := range []int{2, 4} {
		if got := draw(s); got != ref {
			t.Fatalf("shards=%d per-node draws %s, want %s", s, got, ref)
		}
	}
}

// TestShardedAmortizedZeroAlloc locks in the engine's allocation behavior
// under sharding: per-RunUntil costs are fixed (worker goroutines, window
// barriers), while the per-event hot path — heap push/pop, outbox buffering,
// dispatch — allocates nothing once steady-state capacity is reached.
func TestShardedAmortizedZeroAlloc(t *testing.T) {
	env := NewShardedEnv(11, 2)
	const events = 20000
	count := 0
	a := &relayNode{id: "pa"}
	b := &relayNode{id: "pb"}
	bounce := func(e *Env, from NodeID, iface string, msg Message) {
		if count < events {
			count++
			e.Send(e.w.list[e.cur].ID(), from, msg)
		}
	}
	a.onMsg = bounce
	b.onMsg = bounce
	env.AddNode(a)
	env.AddNode(b)
	env.Connect("pa", "pb", "pp", time.Millisecond)
	env.AssignShard("pb", 1)

	run := func() {
		count = 0
		env.Send("pa", "pb", testMsg{"ball"})
		env.Run()
	}
	run() // warm the arenas and outboxes to their high-water mark
	allocs := testing.AllocsPerRun(3, run)
	// Budget: fixed per-run machinery only. 20k cross-shard events must not
	// contribute, so even a tiny per-event leak fails loudly.
	if allocs > 100 {
		t.Fatalf("sharded run allocated %.0f objects for %d events (want fixed per-run cost < 100)", allocs, events)
	}
}

func TestShardOfAndShardCount(t *testing.T) {
	env := NewShardedEnv(1, 3)
	if env.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", env.ShardCount())
	}
	env.AddNode(&recorderNode{id: "n"})
	if env.ShardOf("n") != 0 {
		t.Fatalf("default shard = %d, want 0", env.ShardOf("n"))
	}
	env.AssignShard("n", 2)
	if env.ShardOf("n") != 2 {
		t.Fatalf("ShardOf = %d after AssignShard, want 2", env.ShardOf("n"))
	}
}
