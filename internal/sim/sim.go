// Package sim provides a deterministic discrete-event simulation engine.
//
// Every network element in the vGPRS reproduction (MS, BTS, BSC, VMSC, SGSN,
// GGSN, gatekeeper, ...) is a Node registered with an Env. Nodes exchange
// typed protocol messages over Links that model a named interface (Um, Abis,
// A, Gb, ...) with a fixed one-way latency. The engine runs on a virtual
// clock, so latency measurements are exact and runs are reproducible from a
// seed.
//
// # Determinism
//
// Events run in a total order: by timestamp, then by a 64-bit key combining
// the scheduling context (the node whose dispatch created the event, or the
// root context for events scheduled from outside a run) with that context's
// private emission counter. Random draws come from per-context streams
// derived from the root seed (see rng.go). Both depend only on the topology,
// the seed and each context's own history, so the same seed produces a
// byte-identical trace and identical metrics.
//
// # Ownership
//
// A world is one Env and the nodes registered with it. Its nodes are called
// only from the goroutine that runs its Env, and worlds share no mutable
// state, so no node takes a lock and separate worlds may run on separate
// goroutines (the experiment sweeps do). The race detector checks both:
// netsim.TestWorldsShareNoState runs every topology twice at once.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// NodeID identifies a network element within an Env.
type NodeID string

// Message is a protocol message exchanged between nodes. Every protocol
// package defines typed messages implementing this interface; Name returns
// the wire-level message name used in the paper's figures (for example
// "MAP_UPDATE_LOCATION" or "RAS RRQ") so traces read like the paper.
type Message interface {
	Name() string
}

// Node is a simulated network element.
type Node interface {
	// ID returns the node's unique identifier within its Env.
	ID() NodeID
	// Receive handles a message delivered over the named interface.
	// It runs inside the event loop; implementations may call back into
	// the Env (Send, After) but must not block.
	Receive(env *Env, from NodeID, iface string, msg Message)
}

// Tracer observes every message delivery. The trace package provides a
// recording implementation; a nil tracer disables tracing.
type Tracer interface {
	Trace(at time.Duration, from, to NodeID, iface string, msg Message)
}

// ctrBits is the width of the per-context emission counter within an event
// key; the context index occupies the bits above it. 2^24 contexts times
// 2^40 emissions per context bound a single simulation.
const ctrBits = 40

// Env is a simulation environment: the node and link registries, the event
// queue and the virtual clock.
type Env struct {
	seed int64
	list []Node           // dense context index -> node; [0] is the root context
	idx  map[NodeID]int32 // node ID -> context index
	ctr  []uint64         // per-context emission counters (event key tie-break)
	rngs []*rand.Rand     // per-context RNG streams, created on first draw
	// out is the per-context adjacency: every link leaving the context's
	// node, sorted by To — the one record of the topology. Send resolves
	// its link in the dispatching context's row, so the steady state hashes
	// no NodeID; by-name queries (LinkBetween, HasLink) and sends made on
	// another node's behalf find the row through idx.
	out    [][]*Link
	tracer Tracer

	queue     eventQueue
	now       time.Duration
	cur       int32 // context (node index) of the event being dispatched
	running   bool
	delivered uint64
}

// Link is a unidirectional edge between two nodes. Connect creates both
// directions with the same properties.
type Link struct {
	From    NodeID
	To      NodeID
	Iface   string
	Latency time.Duration
	// Jitter, when positive, adds a uniformly distributed extra delay in
	// [0, Jitter) to each delivery. Jitter draws from the sending node's
	// seeded stream, so runs remain reproducible.
	Jitter time.Duration
	// Loss, when positive, drops each delivery independently with this
	// probability (0..1), drawing from the sending node's seeded stream.
	Loss float64
	// Down marks the link as failed; sends over a down link are dropped
	// (and still traced with the "drop:" prefix on the interface name).
	Down bool
	// Dup, when positive, duplicates each (non-dropped) delivery
	// independently with this probability (0..1): the message is delivered
	// twice, each copy with its own jitter draw. Receivers must treat
	// signalling PDUs idempotently, which is exactly what the chaos tests
	// exercise.
	Dup float64

	// toIdx caches the destination's context index so the delivery hot
	// path resolves the node without a map lookup.
	toIdx int32
}

// NewEnv creates an empty simulation environment seeded for
// reproducibility.
func NewEnv(seed int64) *Env {
	return &Env{
		seed: seed,
		idx:  make(map[NodeID]int32),
		list: []Node{nil},
		ctr:  make([]uint64, 1),
		rngs: make([]*rand.Rand, 1),
		out:  make([][]*Link, 1),
	}
}

// SetTracer installs the message tracer. Passing nil disables tracing.
func (e *Env) SetTracer(t Tracer) { e.tracer = t }

// Tracer returns the currently installed tracer, or nil.
func (e *Env) Tracer() Tracer { return e.tracer }

// Rand returns the seeded random stream of the current scheduling context:
// the node whose event is being dispatched, or the root stream outside a
// run. Streams are derived per node from the root seed (see rng.go), so
// draws are reproducible and one node's draws never shift another's.
func (e *Env) Rand() *rand.Rand { return e.ctxRand() }

func (e *Env) ctxRand() *rand.Rand {
	r := e.rngs[e.cur]
	if r == nil {
		// Lazy creation keeps populations of nodes that never draw (the
		// common case) from paying a stream each.
		r = rand.New(newStream(e.seed, e.cur))
		e.rngs[e.cur] = r
	}
	return r
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Delivered returns the number of messages delivered so far.
func (e *Env) Delivered() uint64 { return e.delivered }

// AddNode registers a node. It panics if the node's ID is already taken:
// topology construction errors are programming errors, not runtime
// conditions.
func (e *Env) AddNode(n Node) {
	id := n.ID()
	if _, ok := e.idx[id]; ok {
		panic(fmt.Sprintf("sim: duplicate node ID %q", id))
	}
	e.idx[id] = int32(len(e.list))
	e.list = append(e.list, n)
	e.ctr = append(e.ctr, 0)
	e.rngs = append(e.rngs, nil)
	e.out = append(e.out, nil)
}

// Node returns the registered node with the given ID, or nil.
func (e *Env) Node(id NodeID) Node {
	if i, ok := e.idx[id]; ok {
		return e.list[i]
	}
	return nil
}

// Connect creates a bidirectional link between a and b over the named
// interface with the given one-way latency. Both endpoints must already be
// registered. It returns the two unidirectional links so callers can adjust
// jitter or fail one direction.
func (e *Env) Connect(a, b NodeID, iface string, latency time.Duration) (ab, ba *Link) {
	ia, oka := e.idx[a]
	ib, okb := e.idx[b]
	switch {
	case !oka:
		panic(fmt.Sprintf("sim: Connect references unknown node %q", a))
	case !okb:
		panic(fmt.Sprintf("sim: Connect references unknown node %q", b))
	}
	pair := &[2]Link{
		{From: a, To: b, Iface: iface, Latency: latency, toIdx: ib},
		{From: b, To: a, Iface: iface, Latency: latency, toIdx: ia},
	}
	ab, ba = &pair[0], &pair[1]
	e.out[ia] = putLink(e.out[ia], ab)
	e.out[ib] = putLink(e.out[ib], ba)
	return ab, ba
}

// findLink binary-searches an adjacency for the link to the given node. It
// returns the position the link holds, or would be inserted at.
func findLink(adj []*Link, to NodeID) (int, bool) {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(adj) && adj[lo].To == to
}

// putLink inserts l into an adjacency in To order. Reconnecting a pair
// replaces the earlier link.
func putLink(adj []*Link, l *Link) []*Link {
	i, found := findLink(adj, l.To)
	if found {
		adj[i] = l
		return adj
	}
	adj = append(adj, nil)
	copy(adj[i+1:], adj[i:])
	adj[i] = l
	return adj
}

// LinkBetween returns the unidirectional link from a to b, or nil.
func (e *Env) LinkBetween(a, b NodeID) *Link {
	if ia, ok := e.idx[a]; ok {
		if i, found := findLink(e.out[ia], b); found {
			return e.out[ia][i]
		}
	}
	return nil
}

// HasLink reports whether a bidirectional link exists between a and b.
func (e *Env) HasLink(a, b NodeID) bool {
	return e.LinkBetween(a, b) != nil && e.LinkBetween(b, a) != nil
}

// Neighbors returns the IDs of all nodes directly linked from id, sorted
// lexicographically so the result is deterministic regardless of link
// insertion order.
func (e *Env) Neighbors(id NodeID) []NodeID {
	i, ok := e.idx[id]
	if !ok {
		return nil
	}
	var out []NodeID
	for _, l := range e.out[i] {
		out = append(out, l.To)
	}
	return out
}

// nextKey mints the total-order key for an event scheduled by the given
// context: the context index in the high bits, its private emission counter
// below. Keys depend only on the deterministic per-context dispatch
// sequence.
func (e *Env) nextKey(ctx int32) uint64 {
	e.ctr[ctx]++
	return uint64(ctx)<<ctrBits | e.ctr[ctx]
}

// linkFrom resolves the link a Send travels. A node sending under its own
// name during its own dispatch — all traffic once a run is under way — finds
// it in the dispatching context's adjacency. The root context (scripts and
// load drivers outside a run) has no adjacency, and a node sending on behalf
// of another (a VMSC-hosted client) finds none of that name or one with the
// wrong From; both look the sender's adjacency up by name.
func (e *Env) linkFrom(from, to NodeID) *Link {
	adj := e.out[e.cur]
	if i, ok := findLink(adj, to); ok && adj[i].From == from {
		return adj[i]
	}
	return e.LinkBetween(from, to)
}

// Send delivers msg from one node to another over the link between them.
// Delivery is scheduled after the link latency (plus jitter, if configured).
// Send panics if no link exists: sending over a nonexistent interface is a
// topology bug the figure tests must surface loudly.
func (e *Env) Send(from, to NodeID, msg Message) {
	link := e.linkFrom(from, to)
	if link == nil {
		panic(fmt.Sprintf("sim: no link %s -> %s for message %s", from, to, msg.Name()))
	}
	if link.Down || (link.Loss > 0 && e.ctxRand().Float64() < link.Loss) {
		if e.tracer != nil {
			e.tracer.Trace(e.now, from, to, "drop:"+link.Iface, msg)
		}
		return
	}
	// Fault draws happen in a fixed order (loss, then duplication, then one
	// jitter draw per copy) so a seeded run replays identically.
	copies := 1
	if link.Dup > 0 && e.ctxRand().Float64() < link.Dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delay := link.Latency
		if link.Jitter > 0 {
			delay += time.Duration(e.ctxRand().Int63n(int64(link.Jitter)))
		}
		// Delivery is the engine's steady state: schedule a typed record
		// rather than a closure so the hot path performs zero heap
		// allocations.
		e.queue.push(&event{
			at: e.now + delay, seq: e.nextKey(e.cur), kind: evDeliver,
			ctx: link.toIdx, link: link, msg: msg,
		})
	}
}

// dispatch runs one popped event.
func (e *Env) dispatch(ev *event) {
	e.cur = ev.ctx
	switch ev.kind {
	case evDeliver:
		dst := e.list[ev.ctx]
		if dst == nil {
			return
		}
		l := ev.link
		if e.tracer != nil {
			e.tracer.Trace(e.now, l.From, l.To, l.Iface, ev.msg)
		}
		e.delivered++
		dst.Receive(e, l.From, l.Iface, ev.msg)
	case evTimerArg:
		ev.argFn(ev.arg)
	default:
		ev.arg.(func())()
	}
}

// Note records an application-level message in the trace without delivering
// anything: protocol endpoints call it when they send or decode a message
// that rides encapsulated inside lower layers (a Q.931 Setup inside
// TCP/GTP/Gb, a RAS RRQ inside UDP). This is what lets recorded traces show
// the paper's logical arrows (VMSC -> GK "RAS RRQ") alongside the physical
// encapsulation hops.
func (e *Env) Note(from, to NodeID, iface string, msg Message) {
	if e.tracer != nil {
		e.tracer.Trace(e.now, from, to, iface, msg)
	}
}

// After schedules fn to run at Now()+d in the current scheduling context.
// Nodes use it for protocol timers (paging response timers, PDP activation
// timeouts, RTP packetisation ticks).
func (e *Env) After(d time.Duration, fn func()) { e.timer(e.cur, d, fn) }

// AfterNode schedules fn to run at Now()+d in the named node's scheduling
// context: the event's tie-break key comes from that node's counter, so it
// orders among same-instant events as one of the node's own would.
// Scenario drivers use it from outside a run to script state changes that
// belong to a node (the chaos harness toggling a link's faults from its A
// endpoint, for example).
func (e *Env) AfterNode(id NodeID, d time.Duration, fn func()) {
	i, ok := e.idx[id]
	if !ok {
		panic(fmt.Sprintf("sim: AfterNode of unknown node %q", id))
	}
	e.timer(i, d, fn)
}

func (e *Env) timer(ctx int32, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.queue.push(&event{at: e.now + d, seq: e.nextKey(ctx), kind: evTimer, ctx: ctx, arg: fn})
}

// Timer is a handle to one timer scheduled by AfterArg, good for cancelling
// it. It names the event by key and queue slot, so a handle whose timer has
// fired or been cancelled — even one whose slot a later event now occupies —
// matches nothing. The zero Timer is never valid.
type Timer struct {
	seq uint64
	idx int32
}

// AfterArg schedules fn(arg) to run at Now()+d. Unlike After it takes a
// plain function plus its argument, so callers with many outstanding timers
// (the transaction tables) can schedule a package-level function without
// allocating a fresh closure per timer. The returned handle cancels it.
func (e *Env) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	seq := e.nextKey(e.cur)
	idx := e.queue.push(&event{at: e.now + d, seq: seq, kind: evTimerArg, ctx: e.cur, argFn: fn, arg: arg})
	return Timer{seq: seq, idx: idx}
}

// Cancel removes a pending timer from the queue, releasing its callback and
// argument, and reports whether it did: false means the timer has already
// fired (its own callback included) or been cancelled.
func (e *Env) Cancel(t Timer) bool { return e.queue.remove(t.idx, t.seq) }

// NextRTO advances a retransmission timeout one step: binary exponential
// backoff capped at 8x the initial value (TCP-style bounded backoff, so
// large retry budgets keep probing instead of going silent for the rest of
// the run). Every retransmitting plane in the stack paces itself with this
// so budgets compose predictably.
func NextRTO(cur, initial time.Duration) time.Duration {
	next := cur * 2
	if max := initial * 8; next > max {
		return max
	}
	return next
}

// RetryDeadline returns the virtual time between a request's first
// transmission and its retry budget exhausting, for a schedule of retries
// retransmissions paced by NextRTO from the given initial RTO. For budgets
// of three or fewer this is the classic (2^(retries+1)-1)*rto; beyond that
// the cap makes it linear.
func RetryDeadline(rto time.Duration, retries int) time.Duration {
	var total time.Duration
	cur := rto
	for i := 0; i <= retries; i++ {
		total += cur
		cur = NextRTO(cur, rto)
	}
	return total
}

// Run processes events until the queue is empty. It returns the virtual time
// at which the simulation quiesced.
func (e *Env) Run() time.Duration {
	return e.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline. A negative deadline
// means run to quiescence. Events scheduled during the run are processed if
// they fall within the deadline. It returns the current virtual time.
func (e *Env) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	var ev event
	for {
		at, ok := e.queue.peekAt()
		if !ok || (deadline >= 0 && at > deadline) {
			break
		}
		e.queue.pop(&ev)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatch(&ev)
	}
	// Idle time still passes: a bounded run leaves the clock at the
	// deadline so time-based state (expiries, TTLs) observes the full
	// interval. A deadline already passed leaves it where it is: the clock
	// never runs backwards.
	if deadline > e.now {
		e.now = deadline
	}
	e.cur = 0
	return e.now
}

// Step processes exactly one pending event — the earliest by (timestamp,
// key) — returning false if none remain. It is the debugging and
// test-harness interface, not the performance path. Like RunUntil it
// panics when called from inside a dispatch.
func (e *Env) Step() bool {
	if e.running {
		panic("sim: re-entrant Step")
	}
	var ev event
	if !e.queue.pop(&ev) {
		return false
	}
	if ev.at > e.now {
		e.now = ev.at
	}
	e.running = true
	defer func() { e.running, e.cur = false, 0 }()
	e.dispatch(&ev)
	return true
}

// Pending returns the number of queued events.
func (e *Env) Pending() int { return e.queue.len() }
