package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

type testMsg struct{ name string }

func (m testMsg) Name() string { return m.name }

type recorderNode struct {
	id       NodeID
	got      []string
	gotAt    []time.Duration
	onMsg    func(env *Env, from NodeID, iface string, msg Message)
	lastFrom NodeID
	lastIf   string
}

func (n *recorderNode) ID() NodeID { return n.id }

func (n *recorderNode) Receive(env *Env, from NodeID, iface string, msg Message) {
	n.got = append(n.got, msg.Name())
	n.gotAt = append(n.gotAt, env.Now())
	n.lastFrom = from
	n.lastIf = iface
	if n.onMsg != nil {
		n.onMsg(env, from, iface, msg)
	}
}

func newPair(t *testing.T, latency time.Duration) (*Env, *recorderNode, *recorderNode) {
	t.Helper()
	env := NewEnv(1)
	a := &recorderNode{id: "a"}
	b := &recorderNode{id: "b"}
	env.AddNode(a)
	env.AddNode(b)
	env.Connect("a", "b", "test", latency)
	return env, a, b
}

func TestSendDeliversAfterLatency(t *testing.T) {
	env, _, b := newPair(t, 5*time.Millisecond)
	env.Send("a", "b", testMsg{"hello"})
	env.Run()
	if len(b.got) != 1 || b.got[0] != "hello" {
		t.Fatalf("b.got = %v, want [hello]", b.got)
	}
	if b.gotAt[0] != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", b.gotAt[0])
	}
	if b.lastFrom != "a" || b.lastIf != "test" {
		t.Fatalf("from=%q iface=%q, want a/test", b.lastFrom, b.lastIf)
	}
}

func TestBidirectionalLink(t *testing.T) {
	env, a, b := newPair(t, time.Millisecond)
	b.onMsg = func(env *Env, from NodeID, _ string, _ Message) {
		env.Send("b", from, testMsg{"pong"})
	}
	env.Send("a", "b", testMsg{"ping"})
	env.Run()
	if len(a.got) != 1 || a.got[0] != "pong" {
		t.Fatalf("a.got = %v, want [pong]", a.got)
	}
	if a.gotAt[0] != 2*time.Millisecond {
		t.Fatalf("round trip at %v, want 2ms", a.gotAt[0])
	}
}

func TestFIFOOrderingAtEqualTime(t *testing.T) {
	env, _, b := newPair(t, 0)
	for _, name := range []string{"m1", "m2", "m3", "m4"} {
		env.Send("a", "b", testMsg{name})
	}
	env.Run()
	want := []string{"m1", "m2", "m3", "m4"}
	if len(b.got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(b.got), len(want))
	}
	for i := range want {
		if b.got[i] != want[i] {
			t.Fatalf("b.got = %v, want %v", b.got, want)
		}
	}
}

func TestAfterTimerFires(t *testing.T) {
	env := NewEnv(1)
	var firedAt time.Duration
	env.After(7*time.Millisecond, func() { firedAt = env.Now() })
	env.Run()
	if firedAt != 7*time.Millisecond {
		t.Fatalf("fired at %v, want 7ms", firedAt)
	}
}

// TestCancel walks one Timer handle through its life: cancelling a pending
// timer takes it out of the queue so it never fires and Run quiesces without
// waiting for it; a second cancel, a cancel after the timer fired, a cancel
// from inside the timer's own callback and the zero Timer all report false
// and disturb nothing — including the later event that reuses the slot.
func TestCancel(t *testing.T) {
	env := NewEnv(1)
	var fired []string
	note := func(arg any) { fired = append(fired, arg.(string)) }

	keep := env.AfterArg(2*time.Millisecond, note, "keep")
	drop := env.AfterArg(time.Second, note, "drop")
	if !env.Cancel(drop) || env.Pending() != 1 {
		t.Fatalf("Cancel of a pending timer failed, %d events pending", env.Pending())
	}
	if env.Cancel(drop) || env.Cancel(Timer{}) {
		t.Fatal("a cancelled handle or the zero Timer cancelled something")
	}
	// reuse takes the slot drop left; the stale handle must not reach it.
	env.AfterArg(3*time.Millisecond, note, "reuse")
	if env.Cancel(drop) {
		t.Fatal("a stale handle cancelled the event that reused its slot")
	}
	var own Timer
	var ownResult bool
	own = env.AfterArg(time.Millisecond, func(any) {
		ownResult = env.Cancel(own)
		fired = append(fired, "own")
	}, nil)

	if end := env.Run(); end != 3*time.Millisecond {
		t.Fatalf("Run quiesced at %v, want 3ms: the cancelled 1s timer must not hold the clock", end)
	}
	if got := strings.Join(fired, ","); got != "own,keep,reuse" {
		t.Fatalf("fired %s, want own,keep,reuse", got)
	}
	if ownResult || env.Cancel(keep) || env.Cancel(own) {
		t.Fatal("Cancel of a fired timer reported true")
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	env := NewEnv(1)
	fired := false
	env.After(-time.Second, func() { fired = true })
	env.Run()
	if !fired || env.Now() != 0 {
		t.Fatalf("fired=%v now=%v, want true/0", fired, env.Now())
	}
}

func TestRunUntilDeadlineStopsClock(t *testing.T) {
	env := NewEnv(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		d := d
		env.After(d, func() { fired = append(fired, d) })
	}
	now := env.RunUntil(6 * time.Millisecond)
	if now != 6*time.Millisecond {
		t.Fatalf("now = %v, want 6ms", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want two events", fired)
	}
	// The remaining event still runs on the next Run.
	env.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after final Run, want three events", fired)
	}
}

func TestDownLinkDropsMessage(t *testing.T) {
	env, _, b := newPair(t, time.Millisecond)
	env.LinkBetween("a", "b").Down = true
	env.Send("a", "b", testMsg{"lost"})
	env.Run()
	if len(b.got) != 0 {
		t.Fatalf("b.got = %v, want none (link down)", b.got)
	}
}

func TestJitterIsBoundedAndSeedStable(t *testing.T) {
	run := func(seed int64) time.Duration {
		env := NewEnv(seed)
		a := &recorderNode{id: "a"}
		b := &recorderNode{id: "b"}
		env.AddNode(a)
		env.AddNode(b)
		ab, _ := env.Connect("a", "b", "test", 2*time.Millisecond)
		ab.Jitter = 3 * time.Millisecond
		env.Send("a", "b", testMsg{"j"})
		env.Run()
		return b.gotAt[0]
	}
	first := run(42)
	if first < 2*time.Millisecond || first >= 5*time.Millisecond {
		t.Fatalf("jittered delivery at %v, want in [2ms,5ms)", first)
	}
	if again := run(42); again != first {
		t.Fatalf("same seed gave %v then %v", first, again)
	}
}

func TestLossyLinkDropsProportionally(t *testing.T) {
	env, _, b := newPair(t, time.Millisecond)
	env.LinkBetween("a", "b").Loss = 0.5
	const sent = 2000
	for range sent {
		env.Send("a", "b", testMsg{"m"})
	}
	env.Run()
	got := len(b.got)
	if got < sent*35/100 || got > sent*65/100 {
		t.Fatalf("delivered %d of %d with 50%% loss", got, sent)
	}
}

func TestLossyLinkSeedStable(t *testing.T) {
	run := func() int {
		env := NewEnv(99)
		a := &recorderNode{id: "a"}
		b := &recorderNode{id: "b"}
		env.AddNode(a)
		env.AddNode(b)
		ab, _ := env.Connect("a", "b", "test", time.Millisecond)
		ab.Loss = 0.3
		for range 100 {
			env.Send("a", "b", testMsg{"m"})
		}
		env.Run()
		return len(b.got)
	}
	if run() != run() {
		t.Fatal("lossy delivery not reproducible from the seed")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	env := NewEnv(1)
	env.AddNode(&recorderNode{id: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node ID")
		}
	}()
	env.AddNode(&recorderNode{id: "x"})
}

func TestSendWithoutLinkPanics(t *testing.T) {
	env := NewEnv(1)
	env.AddNode(&recorderNode{id: "a"})
	env.AddNode(&recorderNode{id: "b"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on send without link")
		}
	}()
	env.Send("a", "b", testMsg{"nope"})
}

func TestConnectUnknownNodePanics(t *testing.T) {
	env := NewEnv(1)
	env.AddNode(&recorderNode{id: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on connect to unknown node")
		}
	}()
	env.Connect("a", "ghost", "test", 0)
}

func TestStepProcessesOneEvent(t *testing.T) {
	env := NewEnv(1)
	count := 0
	env.After(time.Millisecond, func() { count++ })
	env.After(2*time.Millisecond, func() { count++ })
	if !env.Step() || count != 1 {
		t.Fatalf("after first Step count=%d", count)
	}
	if !env.Step() || count != 2 {
		t.Fatalf("after second Step count=%d", count)
	}
	if env.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestHasLinkAndNeighbors(t *testing.T) {
	env, _, _ := newPair(t, 0)
	if !env.HasLink("a", "b") {
		t.Fatal("HasLink(a,b) = false")
	}
	if env.HasLink("a", "c") {
		t.Fatal("HasLink(a,c) = true for missing node")
	}
	nbrs := env.Neighbors("a")
	if len(nbrs) != 1 || nbrs[0] != "b" {
		t.Fatalf("Neighbors(a) = %v, want [b]", nbrs)
	}
}

func TestDeliveredCounter(t *testing.T) {
	env, _, _ := newPair(t, 0)
	for range 5 {
		env.Send("a", "b", testMsg{"m"})
	}
	env.Run()
	if env.Delivered() != 5 {
		t.Fatalf("Delivered = %d, want 5", env.Delivered())
	}
}

// TestEventOrderProperty checks, for arbitrary sets of timer delays, that
// callbacks always observe a monotonically nondecreasing clock and that all
// timers fire.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		env := NewEnv(7)
		fired := 0
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			env.After(time.Duration(d)*time.Microsecond, func() {
				if env.Now() < last {
					ok = false
				}
				last = env.Now()
				fired++
			})
		}
		env.Run()
		return ok && fired == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTieBreakProperty checks that events scheduled for the same instant fire
// in scheduling order regardless of how many there are.
func TestTieBreakProperty(t *testing.T) {
	prop := func(n uint8) bool {
		env := NewEnv(7)
		var order []int
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			i := i
			env.After(time.Millisecond, func() { order = append(order, i) })
		}
		env.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilDeadlineExactlyOnEvent(t *testing.T) {
	env := NewEnv(1)
	var fired []time.Duration
	env.After(5*time.Millisecond, func() { fired = append(fired, env.Now()) })
	env.After(5*time.Millisecond, func() { fired = append(fired, env.Now()) })
	env.After(5*time.Millisecond+time.Nanosecond, func() { fired = append(fired, env.Now()) })
	// A deadline exactly on an event timestamp is inclusive: both 5ms
	// events run, the 5ms+1ns event stays queued.
	if now := env.RunUntil(5 * time.Millisecond); now != 5*time.Millisecond {
		t.Fatalf("RunUntil returned %v, want 5ms", now)
	}
	if len(fired) != 2 || fired[0] != 5*time.Millisecond || fired[1] != 5*time.Millisecond {
		t.Fatalf("fired = %v, want two events at 5ms", fired)
	}
	if env.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", env.Pending())
	}
	env.Run()
	if len(fired) != 3 {
		t.Fatalf("fired = %v after Run, want three events", fired)
	}
}

func TestRunUntilIdleEmptyQueueAdvancesToDeadline(t *testing.T) {
	env := NewEnv(1)
	// Repeated idle bounded runs each land exactly on their deadline; an
	// earlier (already passed) deadline must not move the clock backwards.
	if got := env.RunUntil(3 * time.Second); got != 3*time.Second {
		t.Fatalf("first idle RunUntil returned %v", got)
	}
	if got := env.RunUntil(2 * time.Second); got != 3*time.Second {
		t.Fatalf("stale deadline moved the clock: %v", got)
	}
	if got := env.RunUntil(7 * time.Second); got != 7*time.Second {
		t.Fatalf("second idle RunUntil returned %v", got)
	}
	if env.Now() != 7*time.Second {
		t.Fatalf("Now = %v, want 7s", env.Now())
	}
}

// TestRunUntilPastDeadlineKeepsClock: a bounded run whose deadline has
// already passed, with events still pending, leaves the clock where it is,
// so an event scheduled afterwards never runs in the past.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	env := NewEnv(1)
	env.After(30*time.Millisecond, func() {})
	if got := env.RunUntil(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("first RunUntil returned %v, want 20ms", got)
	}
	if got := env.RunUntil(5 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("RunUntil(5ms) with an event pending moved the clock to %v", got)
	}
	var firedAt time.Duration
	env.After(0, func() { firedAt = env.Now() })
	env.Run()
	if firedAt != 20*time.Millisecond {
		t.Fatalf("After(0) ran at %v, want 20ms", firedAt)
	}
}

// TestReentrantStepPanics: Step from inside a handler, whether the handler
// was dispatched by Step or by RunUntil, panics as RunUntil's own re-entry
// does, and the engine is usable again afterwards.
func TestReentrantStepPanics(t *testing.T) {
	for _, outer := range []string{"Step", "RunUntil"} {
		env := NewEnv(1)
		env.After(time.Millisecond, func() { env.Step() })
		env.After(2*time.Millisecond, func() {})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Step inside a %s dispatch did not panic", outer)
				}
			}()
			if outer == "Step" {
				env.Step()
			} else {
				env.Run()
			}
		}()
		if !env.Step() || env.Now() != 2*time.Millisecond || env.Pending() != 0 {
			t.Fatalf("after the panic in %s: Now %v, %d pending", outer, env.Now(), env.Pending())
		}
	}
}

func TestStepInterleavedWithRunUntil(t *testing.T) {
	env := NewEnv(1)
	var order []string
	for _, ev := range []struct {
		name string
		at   time.Duration
	}{
		{"a", 1 * time.Millisecond},
		{"b", 2 * time.Millisecond},
		{"c", 3 * time.Millisecond},
		{"d", 9 * time.Millisecond},
	} {
		ev := ev
		env.After(ev.at, func() { order = append(order, ev.name) })
	}
	// Step consumes the earliest event and advances the clock to it.
	if !env.Step() {
		t.Fatal("Step found no event")
	}
	if env.Now() != time.Millisecond {
		t.Fatalf("Now after Step = %v, want 1ms", env.Now())
	}
	// A bounded run picks up from where Step left off.
	if got := env.RunUntil(3 * time.Millisecond); got != 3*time.Millisecond {
		t.Fatalf("RunUntil returned %v, want 3ms", got)
	}
	// Another Step drains the event past the previous deadline.
	if !env.Step() {
		t.Fatal("Step found no event after RunUntil")
	}
	if env.Now() != 9*time.Millisecond {
		t.Fatalf("Now after final Step = %v, want 9ms", env.Now())
	}
	if env.Step() {
		t.Fatal("Step on drained queue should return false")
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	env := NewEnv(1)
	if got := env.RunUntil(5 * time.Second); got != 5*time.Second {
		t.Fatalf("idle RunUntil returned %v", got)
	}
	if env.Now() != 5*time.Second {
		t.Fatalf("Now = %v after idle bounded run", env.Now())
	}
	// A later deadline with one event in between: the event runs at its
	// own time, and the clock still ends at the deadline.
	var firedAt time.Duration
	env.After(time.Second, func() { firedAt = env.Now() })
	if got := env.RunUntil(20 * time.Second); got != 20*time.Second {
		t.Fatalf("RunUntil returned %v", got)
	}
	if firedAt != 6*time.Second {
		t.Fatalf("event fired at %v, want 6s", firedAt)
	}
	// Run-to-quiescence must NOT advance an idle clock.
	if got := env.Run(); got != 20*time.Second {
		t.Fatalf("Run moved the idle clock to %v", got)
	}
}

// TestReconnectReplacesLink: a second Connect between the same pair replaces
// the first in both lookup structures — the adjacency never holds two links
// to one neighbour, Neighbors stays sorted and duplicate-free whatever the
// connect order, and sends from either path travel the new link.
func TestReconnectReplacesLink(t *testing.T) {
	env := NewEnv(1)
	hub := &recorderNode{id: "hub"}
	env.AddNode(hub)
	spokes := map[NodeID]*recorderNode{}
	for _, id := range []NodeID{"d", "b", "e", "a", "c"} {
		spokes[id] = &recorderNode{id: id}
		env.AddNode(spokes[id])
		env.Connect("hub", id, "old", time.Second)
	}
	for _, id := range []NodeID{"c", "a", "d"} {
		env.Connect("hub", id, "new", time.Millisecond)
	}
	if got, want := env.Neighbors("hub"), []NodeID{"a", "b", "c", "d", "e"}; !slices.Equal(got, want) {
		t.Fatalf("Neighbors(hub) = %v, want %v", got, want)
	}
	if nb := env.Neighbors("c"); len(nb) != 1 || nb[0] != "hub" {
		t.Fatalf("Neighbors(c) = %v, want [hub]", nb)
	}
	if l := env.LinkBetween("hub", "c"); l.Iface != "new" {
		t.Fatalf("LinkBetween(hub, c) is the %q link, want the replacement", l.Iface)
	}
	// From inside hub's dispatch (adjacency) and from the root context (map).
	hub.onMsg = func(e *Env, _ NodeID, _ string, m Message) { e.Send("hub", "c", m) }
	env.Send("a", "hub", testMsg{"via-adjacency"})
	env.Send("hub", "c", testMsg{"via-map"})
	env.Run()
	c := spokes["c"]
	if len(c.got) != 2 || c.lastIf != "new" || c.gotAt[0] != time.Millisecond || c.gotAt[1] != 2*time.Millisecond {
		t.Fatalf("c received %v over %q at %v, want two deliveries over the replacement link", c.got, c.lastIf, c.gotAt)
	}
}

// TestSendOutsideOwnContext: Send resolves the link by name when the sender
// is not the dispatching node — from the root context before a run (load
// drivers inject traffic this way) and from a node sending under another
// node's ID (a VMSC-hosted client sends as its host), including when the
// dispatching node has its own, different link to the same destination.
func TestSendOutsideOwnContext(t *testing.T) {
	env := NewEnv(1)
	host := &recorderNode{id: "host"}
	guest := &recorderNode{id: "guest"}
	peer := &recorderNode{id: "peer"}
	for _, n := range []*recorderNode{host, guest, peer} {
		env.AddNode(n)
	}
	env.Connect("host", "peer", "hp", time.Millisecond)
	env.Connect("guest", "peer", "gp", 5*time.Millisecond)
	env.Connect("guest", "host", "gh", time.Millisecond)

	// Dispatching in guest's context, send as host.
	guest.onMsg = func(e *Env, _ NodeID, _ string, m Message) { e.Send("host", "peer", m) }
	env.Send("host", "guest", testMsg{"relayed"}) // root context
	env.Run()
	if len(peer.got) != 1 || peer.lastFrom != "host" || peer.lastIf != "hp" || peer.gotAt[0] != 2*time.Millisecond {
		t.Fatalf("peer got %v from %q over %q at %v, want one message from host over hp at 2ms",
			peer.got, peer.lastFrom, peer.lastIf, peer.gotAt)
	}

	// A timer callback runs in its scheduler's context, not a node's.
	env.After(time.Millisecond, func() { env.Send("guest", "peer", testMsg{"timer"}) })
	env.Run()
	if len(peer.got) != 2 || peer.lastFrom != "guest" || peer.lastIf != "gp" {
		t.Fatalf("peer got %v, last from %q over %q, want the timer's send from guest over gp",
			peer.got, peer.lastFrom, peer.lastIf)
	}
}

// TestTrySend: a send to an unlinked node reports false and schedules
// nothing, from a node's own dispatch (its adjacency decides alone), from a
// node sending as another, and from the root context; a linked one reports
// true and delivers.
func TestTrySend(t *testing.T) {
	env := NewEnv(1)
	host := &recorderNode{id: "host"}
	guest := &recorderNode{id: "guest"}
	peer := &recorderNode{id: "peer"}
	for _, n := range []*recorderNode{host, guest, peer} {
		env.AddNode(n)
	}
	env.Connect("host", "peer", "hp", time.Millisecond)
	env.Connect("guest", "host", "gh", time.Millisecond)

	var sent []bool
	guest.onMsg = func(e *Env, _ NodeID, _ string, m Message) {
		if len(sent) > 0 {
			return
		}
		sent = append(sent,
			e.TrySend("guest", "peer", m),  // own adjacency: no link
			e.TrySend("host", "guest", m),  // as host: linked
			e.TrySend("host", "nobody", m), // as host: no link
		)
	}
	if env.TrySend("peer", "guest", testMsg{"x"}) {
		t.Fatal("root-context TrySend over a missing link reported true")
	}
	if !env.TrySend("host", "guest", testMsg{"x"}) {
		t.Fatal("root-context TrySend over a link reported false")
	}
	env.Run()
	if want := []bool{false, true, false}; !slices.Equal(sent, want) {
		t.Fatalf("TrySend from guest's dispatch = %v, want %v", sent, want)
	}
	if len(peer.got) != 0 || len(guest.got) != 2 {
		t.Fatalf("peer got %d, guest %d; want 0 and 2 (the root send, host's send as host)", len(peer.got), len(guest.got))
	}
}

// TestSameTimestampOrderFollowsEventKey: bursts from four senders all fire
// at t=10ms and arrive at t=13ms. The total order at equal timestamps is
// (context index, per-context counter): senders in registration order, each
// sender's messages in send order — whatever order the bursts were scheduled
// in.
func TestSameTimestampOrderFollowsEventKey(t *testing.T) {
	env := NewEnv(42)
	sink := &recorderNode{id: "sink"}
	env.AddNode(sink)
	for i := 0; i < 4; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		env.AddNode(&recorderNode{id: id})
		env.Connect(id, "sink", "tie", 3*time.Millisecond)
	}
	for i := 3; i >= 0; i-- {
		id := NodeID(fmt.Sprintf("n%d", i))
		env.AfterNode(id, 10*time.Millisecond, func() {
			for k := 0; k < 3; k++ {
				env.Send(id, "sink", testMsg{fmt.Sprintf("m-%s-%d", id, k)})
			}
		})
	}
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

// TestStepPicksEarliestByKey: Step runs the earliest event by timestamp,
// and two events at the same instant by key — s1's context index is lower
// than s2's, so s1's 3ms timer runs first although s2's was scheduled
// earlier.
func TestStepPicksEarliestByKey(t *testing.T) {
	env := NewEnv(7)
	var order []string
	for _, id := range []NodeID{"s0", "s1", "s2"} {
		env.AddNode(&recorderNode{id: id})
	}
	env.AfterNode("s2", 3*time.Millisecond, func() { order = append(order, "s2@3") })
	env.AfterNode("s2", 1*time.Millisecond, func() { order = append(order, "s2@1") })
	env.AfterNode("s1", 3*time.Millisecond, func() { order = append(order, "s1@3") })
	env.AfterNode("s0", 2*time.Millisecond, func() { order = append(order, "s0@2") })

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

// TestPending counts every queued kind of event — deliveries, root timers,
// node-context timers — and follows Step, Cancel and Run down to zero.
func TestPending(t *testing.T) {
	env, _, _ := newPair(t, time.Millisecond)
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d on empty env", env.Pending())
	}
	env.Send("a", "b", testMsg{"m"})
	env.After(time.Millisecond, func() {})
	env.AfterNode("b", 2*time.Millisecond, func() {})
	tm := env.AfterArg(time.Second, nopArg, nil)
	if env.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", env.Pending())
	}
	env.Step()
	env.Cancel(tm)
	if env.Pending() != 2 {
		t.Fatalf("Pending = %d after one Step and one Cancel, want 2", env.Pending())
	}
	env.Run()
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", env.Pending())
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

// TestCancelFromNodeContext arms and cancels timers from inside a node's
// dispatch: pings 2 ms apart each cancel the timer the one before armed, two
// 20 ms silences let it run out, and the trace shows a timeout exactly where
// a timer fired.
func TestCancelFromNodeContext(t *testing.T) {
	env := NewEnv(9)
	tr := &captureTracer{}
	env.SetTracer(tr)
	dog := &watchdog{id: "dog"}
	env.AddNode(&recorderNode{id: "src"})
	env.AddNode(dog)
	env.Connect("src", "dog", "wd", time.Millisecond)
	at := time.Duration(0)
	for i := 0; i < 30; i++ {
		at += 2 * time.Millisecond
		if i == 10 || i == 20 {
			at += 20 * time.Millisecond
		}
		env.AfterNode("src", at, func() { env.Send("src", "dog", testMsg{"ping"}) })
	}
	end := env.Run()

	// 30 pings arm 30 timers: three run out (two silences and the end),
	// the other 27 are cancelled by the next ping.
	if dog.cancelled != 27 || dog.expired != 3 || env.Pending() != 0 {
		t.Fatalf("%d cancelled, %d expired, %d pending; want 27, 3, 0",
			dog.cancelled, dog.expired, env.Pending())
	}
	if want := at + 7*time.Millisecond; end != want {
		t.Fatalf("quiesced at %v, want %v (last ping + latency + timeout + latency)", end, want)
	}
	// Pings 11, 21 and 30 each leave a timeout behind them in the trace.
	trace := strings.Join(tr.lines, ",")
	if n := strings.Count(trace, "wd:ping,wd:timeout"); n != 3 || len(tr.lines) != 33 {
		t.Fatalf("trace shows %d timeouts after pings in %d lines, want 3 in 33: %s", n, len(tr.lines), trace)
	}
}

// TestIndependentIslandsQuiesce: two disconnected pairs each exchange one
// message; Run drains both and stops at the last delivery.
func TestIndependentIslandsQuiesce(t *testing.T) {
	env := NewEnv(5)
	for s := 0; s < 2; s++ {
		a := NodeID(fmt.Sprintf("a%d", s))
		b := NodeID(fmt.Sprintf("b%d", s))
		env.AddNode(&recorderNode{id: a})
		env.AddNode(&recorderNode{id: b})
		env.Connect(a, b, "isl", time.Duration(s+1)*time.Millisecond)
		env.AfterNode(a, 0, func() { env.Send(a, b, testMsg{"hi"}) })
	}
	if end := env.Run(); end != 2*time.Millisecond {
		t.Fatalf("quiesced at %v, want 2ms", end)
	}
	if env.Delivered() != 2 {
		t.Fatalf("Delivered = %d, want 2", env.Delivered())
	}
}

// TestPerNodeRandStreams: each node draws from its own stream, a function
// of the seed and the node's registration index only. Two runs with the same
// seed agree; r0 drawing extra values shifts nobody else's sequence; and no
// two nodes share a sequence.
func TestPerNodeRandStreams(t *testing.T) {
	draw := func(extra int) [][]int64 {
		env := NewEnv(1234)
		outs := make([][]int64, 4)
		for i := range outs {
			env.AddNode(&recorderNode{id: NodeID(fmt.Sprintf("r%d", i))})
		}
		for i := range outs {
			n := 2
			if i == 0 {
				n += extra
			}
			env.AfterNode(NodeID(fmt.Sprintf("r%d", i)), time.Millisecond, func() {
				for k := 0; k < n; k++ {
					outs[i] = append(outs[i], env.Rand().Int63())
				}
			})
		}
		env.Run()
		return outs
	}
	ref := draw(0)
	if again := draw(0); fmt.Sprint(again) != fmt.Sprint(ref) {
		t.Fatalf("same seed drew %v, then %v", ref, again)
	}
	shifted := draw(3)
	if !slices.Equal(shifted[0][:2], ref[0]) {
		t.Fatalf("r0's first draws %v changed with extra draws, want %v", shifted[0][:2], ref[0])
	}
	for i := 1; i < 4; i++ {
		if !slices.Equal(shifted[i], ref[i]) {
			t.Fatalf("r%d drew %v after r0 drew more, want %v", i, shifted[i], ref[i])
		}
		if ref[i][0] == ref[0][0] {
			t.Fatalf("r%d and r0 share a stream", i)
		}
	}
}
