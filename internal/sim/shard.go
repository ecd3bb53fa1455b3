package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

const durMax = time.Duration(math.MaxInt64)

// traceRec is one buffered trace emission from a sharded run. Records sort
// by (at, key, emit): the dispatched event's timestamp and total-order key,
// then the emission index within that dispatch — exactly the order a
// single-shard run would have handed the same records to the tracer, which
// is what makes sharded traces byte-identical to sequential ones.
type traceRec struct {
	at    time.Duration
	key   uint64
	emit  uint32
	from  NodeID
	to    NodeID
	iface string
	msg   Message
}

// trace hands one record to the tracer. Single-shard runs (and calls from
// outside a run) trace directly; shard workers buffer, and the records are
// sorted into the global event order and flushed when RunUntil returns.
func (e *Env) trace(at time.Duration, from, to NodeID, iface string, msg Message) {
	w := e.w
	if w.tracer == nil {
		return
	}
	if len(w.shards) == 1 || !w.running {
		w.tracer.Trace(at, from, to, iface, msg)
		return
	}
	e.trbuf = append(e.trbuf, traceRec{at: at, key: e.curKey, emit: e.emit,
		from: from, to: to, iface: iface, msg: msg})
	e.emit++
}

// crossLookahead returns the minimum latency of any link whose endpoints
// live on different shards — the conservative lookahead bound. A simulation
// with no cross-shard links returns durMax (shards are fully independent).
// A zero-latency cross-shard link makes conservative windows degenerate, so
// it panics with partitioning guidance instead of silently serializing.
func (w *world) crossLookahead() time.Duration {
	min := durMax
	for from, adj := range w.out {
		for _, l := range adj {
			if w.shardOf[from] == w.shardOf[l.toIdx] {
				continue
			}
			if l.Latency <= 0 {
				panic(fmt.Sprintf(
					"sim: zero-latency cross-shard link %s -> %s (%s); co-locate both endpoints on one shard or give the link a latency",
					l.From, l.To, l.Iface))
			}
			if l.Latency < min {
				min = l.Latency
			}
		}
	}
	return min
}

// runSharded is the conservative-lookahead parallel event loop.
//
// Each round, the coordinator finds the globally earliest pending event at
// minAt and grants every shard the window [.., minAt+L) where L is the
// minimum cross-shard link latency: any message sent during the round is
// sent at a time >= minAt and arrives after >= L more, so nothing can land
// inside the window — shards are free to process it in parallel without
// ever seeing an event out of order. Cross-shard sends buffer in per-shard
// outboxes and merge into the destination heaps at the barrier between
// rounds.
func (w *world) runSharded(deadline time.Duration) {
	lookahead := w.crossLookahead()
	starts := make([]chan time.Duration, len(w.shards))
	done := make(chan struct{}, len(w.shards))
	for i, sh := range w.shards {
		starts[i] = make(chan time.Duration, 1)
		go func(sh *Env, start <-chan time.Duration) {
			for limit := range start {
				sh.runWindow(limit)
				done <- struct{}{}
			}
		}(sh, starts[i])
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	stoppedEarly := false
	for {
		minAt := durMax
		pending := false
		for _, sh := range w.shards {
			if at, ok := sh.queue.peekAt(); ok && (!pending || at < minAt) {
				pending = true
				minAt = at
			}
		}
		if !pending {
			break
		}
		if deadline >= 0 && minAt > deadline {
			stoppedEarly = true
			break
		}
		// The window bound is exclusive; a bounded run may process events
		// at the deadline itself, hence deadline+1.
		limit := durMax
		if lookahead < durMax-minAt {
			limit = minAt + lookahead
		}
		if deadline >= 0 && limit > deadline+1 {
			limit = deadline + 1
		}
		for _, ch := range starts {
			ch <- limit
		}
		for range w.shards {
			<-done
		}
		w.mergeOutboxes()
	}

	// Synchronize the clocks so Now() reports the same global time a
	// sequential run would: the last processed event's time, advanced to
	// the deadline when a bounded run went idle or stopped on a future
	// event.
	maxNow := time.Duration(0)
	for _, sh := range w.shards {
		if sh.now > maxNow {
			maxNow = sh.now
		}
	}
	if deadline >= 0 && (stoppedEarly || deadline > maxNow) {
		maxNow = deadline
	}
	for _, sh := range w.shards {
		sh.now = maxNow
		sh.cur = 0
	}
	w.flushTraces()
}

// runWindow processes this shard's events strictly earlier than limit.
func (e *Env) runWindow(limit time.Duration) {
	var ev event
	for {
		at, ok := e.queue.peekAt()
		if !ok || at >= limit {
			break
		}
		e.queue.pop(&ev)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.dispatch(&ev)
	}
	e.cur = 0
}

// mergeOutboxes drains every shard's cross-shard outboxes into the
// destination heaps. It runs on the coordinator goroutine at the barrier
// between rounds, when all workers are parked.
func (w *world) mergeOutboxes() {
	for _, src := range w.shards {
		for d := range src.outbox {
			box := src.outbox[d]
			if len(box) == 0 {
				continue
			}
			q := &w.shards[d].queue
			for i := range box {
				q.push(&box[i])
				box[i] = event{} // drop message refs so the outbox doesn't retain them
			}
			src.outbox[d] = box[:0]
		}
	}
}

// flushTraces sorts the buffered per-shard trace records into the global
// event order and hands them to the tracer.
func (w *world) flushTraces() {
	if w.tracer == nil {
		return
	}
	total := 0
	for _, sh := range w.shards {
		total += len(sh.trbuf)
	}
	if total == 0 {
		return
	}
	all := make([]traceRec, 0, total)
	for _, sh := range w.shards {
		all = append(all, sh.trbuf...)
		for i := range sh.trbuf {
			sh.trbuf[i] = traceRec{}
		}
		sh.trbuf = sh.trbuf[:0]
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.emit < b.emit
	})
	for i := range all {
		r := &all[i]
		w.tracer.Trace(r.at, r.from, r.to, r.iface, r.msg)
	}
}
