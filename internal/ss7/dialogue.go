package ss7

import (
	"errors"
	"time"

	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

// InvokeID correlates a MAP invoke with its result, like a TCAP invoke ID.
type InvokeID uint32

// ErrTimeout is the typed error surfaced when an invoke exhausts its timeout
// or retransmission budget without a response. Procedure layers wrap it into
// their own failure causes; tests assert on it with errors.Is.
var ErrTimeout = errors.New("ss7: dialogue timed out")

// DialogueManager tracks outstanding MAP invokes for one network element.
// Callers register a completion callback per invoke; a response routed back
// through Resolve fires the callback exactly once. Invokes that receive no
// response within their timeout (or retransmission budget) fire the callback
// with ok=false — this is how lost-signalling failure injection surfaces in
// the procedure state machines.
//
// The pending table, timers, retransmission and record recycling are a
// txn.Table keyed by invoke ID; the manager adds ID allocation and the two
// callback shapes. It is driven entirely from the simulation goroutine, so
// it needs no locking.
type DialogueManager struct {
	owner sim.NodeID // the element every request is sent from
	next  InvokeID
	txns  *txn.Table[InvokeID, invoke]
	// staged is the invoke allocated by InvokeRetry/InvokeRetryArg and not
	// yet transmitted; Transmit enters it into the table.
	staged   invoke
	stagedID InvokeID
}

// invoke is one outstanding dialogue: its completion fn(arg, ...) and, for
// retransmitting invokes, the request PDU and its destination.
type invoke struct {
	fn  func(arg any, msg sim.Message, ok bool)
	arg any
	to  sim.NodeID
	msg sim.Message
}

// callDone completes the closure forms: the closure itself rides in arg (a
// func value is pointer-shaped, so boxing it does not allocate).
func callDone(arg any, msg sim.Message, ok bool) { arg.(func(sim.Message, bool))(msg, ok) }

// NewDialogueManager returns an empty manager for the element owner.
func NewDialogueManager(owner sim.NodeID) *DialogueManager {
	return &DialogueManager{owner: owner, txns: txn.New[InvokeID](
		func(env *sim.Env, p *invoke) bool { env.Send(owner, p.to, p.msg); return true },
		func(_ *sim.Env, p *invoke) { p.fn(p.arg, nil, false) },
	)}
}

// Invoke allocates an invoke ID and registers done to be called with the
// response. If no response arrives within timeout (virtual time), done is
// called with (nil, false). A timeout of zero disables expiry.
func (d *DialogueManager) Invoke(env *sim.Env, timeout time.Duration, done func(msg sim.Message, ok bool)) InvokeID {
	d.next++
	*d.txns.Begin(env, d.next, txn.Policy{RTO: timeout, Retries: -1}) = invoke{fn: callDone, arg: done}
	return d.next
}

// InvokeRetry allocates an invoke ID for a retransmitting dialogue: the
// caller must follow immediately with exactly one Transmit carrying the
// request PDU, which enters the dialogue and arms the retry timer. Like
// Invoke, done fires exactly once — with the response, or with (nil, false)
// after the retry budget is exhausted.
func (d *DialogueManager) InvokeRetry(done func(msg sim.Message, ok bool)) InvokeID {
	return d.InvokeRetryArg(callDone, done)
}

// InvokeRetryArg is InvokeRetry routing completion through a package-level
// function plus a transaction argument: fn(arg, msg, ok). Procedure chains
// that would otherwise allocate a closure per step thread one transaction
// record through all their invokes.
func (d *DialogueManager) InvokeRetryArg(fn func(arg any, msg sim.Message, ok bool), arg any) InvokeID {
	d.next++
	d.staged, d.stagedID = invoke{fn: fn, arg: arg}, d.next
	return d.next
}

// Transmit sends the request PDU for the invoke just allocated with
// InvokeRetry/InvokeRetryArg and arms its retransmission timer: if no
// Resolve arrives within rto the same PDU is re-sent on the txn.Policy
// schedule (retries as configured: zero means the default budget, negative
// none). Responders must therefore treat a repeated invoke ID idempotently.
// When the budget runs out the completion callback fires with (nil, false).
func (d *DialogueManager) Transmit(env *sim.Env, id InvokeID, to sim.NodeID, msg sim.Message, rto time.Duration, retries int) {
	if id != d.stagedID {
		return
	}
	p := d.txns.Begin(env, id, txn.Policy{RTO: rto, Retries: retries})
	*p = d.staged
	p.to, p.msg = to, msg
	d.staged, d.stagedID = invoke{}, 0
	env.Send(d.owner, to, msg)
}

// Resolve delivers a response for the given invoke ID. It reports whether an
// outstanding invoke was found (late responses after timeout return false
// and are dropped, mirroring TCAP behaviour).
func (d *DialogueManager) Resolve(id InvokeID, msg sim.Message) bool {
	p, ok := d.txns.Take(id)
	if ok {
		p.fn(p.arg, msg, true)
	}
	return ok
}

// Stats returns the dialogue table's accounting; the owner reports it in its
// TxnStats.
func (d *DialogueManager) Stats() txn.Stats { return d.txns.Stats() }
