package h323

import (
	"net/netip"

	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

// Host is the H.323 element a Transactions table works for: it says where a
// request leaves from, holds each call's Leg and clears a call whose leg
// ended. The VMSC is the host of every row of its MS table (owner is the
// row's slab handle); a terminal or gateway is its own host (owner zero).
type Host[C comparable] interface {
	// Endpoint returns the endpoint owner's RAS requests leave from, or
	// false once owner is gone (a purged MS-table row): the request then
	// fails at once instead of spending the rest of its budget.
	Endpoint(owner slab.Handle) (Endpoint, bool)
	// CallLeg returns a call's leg and the endpoint its Q.931 messages leave
	// from; ok is false once the call's owner is gone (the leg is still
	// returned).
	CallLeg(call C) (ep Endpoint, leg *Leg, ok bool)
	// Released clears a call whose leg ended at the far end: its
	// ReleaseComplete arrived, or a Q.931 message went unanswered through
	// its whole budget (or its owner went while it waited).
	Released(env *sim.Env, call C)
}

// Transactions is an H.323 element's in-flight signalling: RAS requests to
// the gatekeeper keyed by sequence number, each with its completion, and the
// Q.931 retransmission cycle (T303 for Setup, T313 for Connect) of each call's
// leg (leg.go), keyed by the owner's call. Both run on one retransmission
// policy.
type Transactions[H Host[C], C comparable] struct {
	ras        *txn.Table[uint32, RAS[H, C]]
	q931       *txn.Table[C, q931Cycle[C]]
	host       H
	gatekeeper netip.Addr
	policy     txn.Policy
}

// RAS is one RAS request in flight. Host, Owner and Call are its subject as
// the completion reads it back; Call is the zero C for requests about no call.
type RAS[H Host[C], C comparable] struct {
	Host  H
	Owner slab.Handle
	Call  C
	done  RASDone[H, C]
	req   sim.Message
}

// RASDone completes a RAS request: answer is the gatekeeper's confirm or
// reject, or nil once the retransmission budget ran out without one.
type RASDone[H Host[C], C comparable] func(env *sim.Env, r RAS[H, C], answer sim.Message)

// q931Cycle is a call's running Q.931 retransmission cycle.
type q931Cycle[C comparable] struct {
	call C
	msg  sim.Message
}

// NewTransactions returns the empty tables of host, whose RAS requests go to
// gatekeeper, on policy's schedule (a zero RTO never retransmits or expires).
func NewTransactions[H Host[C], C comparable](host H, gatekeeper netip.Addr, policy txn.Policy) *Transactions[H, C] {
	t := &Transactions[H, C]{host: host, gatekeeper: gatekeeper, policy: policy}
	t.ras = txn.New[uint32](t.resendRAS, expiredRAS[H, C])
	t.q931 = txn.New[C](t.resendQ931, t.expiredQ931)
	return t
}

// SendRAS begins the RAS request req under its sequence number and sends it
// to the gatekeeper from owner's endpoint. done runs exactly once.
func (t *Transactions[H, C]) SendRAS(env *sim.Env, owner slab.Handle, call C, req sim.Message, done RASDone[H, C]) {
	seq, _ := rasSeq(req)
	*t.ras.Begin(env, seq, t.policy) = RAS[H, C]{Host: t.host, Owner: owner, Call: call, done: done, req: req}
	if ep, ok := t.host.Endpoint(owner); ok {
		ep.SendRAS(env, t.gatekeeper, req)
	}
}

// AnswerRAS matches a RAS answer to its request by sequence number and runs
// the request's completion. A request, an unknown sequence number, or an
// answer arriving after its request expired is dropped.
func (t *Transactions[H, C]) AnswerRAS(env *sim.Env, answer sim.Message) {
	if seq, ok := rasSeq(answer); ok {
		if r, ok := t.ras.Take(seq); ok {
			r.done(env, r, answer)
		}
	}
}

func (t *Transactions[H, C]) resendRAS(env *sim.Env, r *RAS[H, C]) bool {
	ep, ok := t.host.Endpoint(r.Owner)
	if ok {
		ep.SendRAS(env, t.gatekeeper, r.req)
	}
	return ok
}

func expiredRAS[H Host[C], C comparable](env *sim.Env, r *RAS[H, C]) { r.done(env, *r, nil) }

// sendQ931 sends a Q.931 message that expects an answer and starts call's
// retransmission cycle for it, replacing the cycle still running. The leg
// stops it when the answer arrives; a spent budget releases the call.
func (t *Transactions[H, C]) sendQ931(env *sim.Env, call C, msg sim.Message) {
	ep, leg, ok := t.host.CallLeg(call)
	if !ok {
		return
	}
	ep.SendQ931(env, leg.Peer, msg)
	t.q931.Take(call)
	*t.q931.Begin(env, call, t.policy) = q931Cycle[C]{call: call, msg: msg}
}

func (t *Transactions[H, C]) resendQ931(env *sim.Env, c *q931Cycle[C]) bool {
	ep, leg, ok := t.host.CallLeg(c.call)
	if ok {
		ep.SendQ931(env, leg.Peer, c.msg)
	}
	return ok
}

// expiredQ931 releases a call whose Q.931 message went unanswered through
// its budget, on both sides, the way a far-end ReleaseComplete does.
func (t *Transactions[H, C]) expiredQ931(env *sim.Env, c *q931Cycle[C]) {
	t.Release(env, c.call, q931.CauseRecoveryOnTimerExpiry)
	t.host.Released(env, c.call)
}

// TxnStats reports the two tables' accounting, by plane.
func (t *Transactions[H, C]) TxnStats(report func(plane string, s txn.Stats)) {
	report("RAS", t.ras.Stats())
	report("Q.931", t.q931.Stats())
}

// RecordSizes is what one RAS request and one Q.931 cycle occupy in their
// tables.
func RecordSizes[H Host[C], C comparable]() (ras, q931 int) {
	return txn.RecordSize[uint32, RAS[H, C]](), txn.RecordSize[C, q931Cycle[C]]()
}
