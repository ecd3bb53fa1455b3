package h323

import (
	"net/netip"

	"vgprs/internal/q931"
	"vgprs/internal/sim"
)

// LegState is where a call's H.225/Q.931 leg stands, seen from this end.
type LegState uint8

// Leg states. A leg opened by the far end's Setup (Incoming) starts in
// LegProceeding; this end's Alerting and Connect move it on. An outgoing
// leg starts in LegIdle and the far end's answers move it on.
const (
	LegIdle       LegState = iota // outgoing, no Setup sent yet (admission)
	LegSetupSent                  // outgoing, Setup sent; T303 runs until the far end answers
	LegProceeding                 // the far end holds the outgoing Setup, or this end acknowledged the incoming one
	LegAlerting                   // the called party rings
	LegConnected                  // answered; an incoming leg's T313 runs until ConnectAck
	LegReleasing                  // cleared: the leg answers nothing more
)

// Leg is the Q.931 side of one call end, held by value in the host's call:
// the wire reference, the peer's signalling address, the far end's media
// address and the leg's state. The VMSC (one leg per MS call), the terminal
// and the gateway run the same leg through their Transactions, so the
// protocol's replies and its T303/T313 cycle are written once, here.
type Leg struct {
	Peer  netip.Addr
	Media q931.MediaAddr
	Ref   uint16
	State LegState
	// Incoming marks a leg opened by the far end's Setup.
	Incoming bool
}

// legKey scopes a Q.931 call reference to the peer that uses it: references
// are per signalling connection, so two peers may use one value at once.
type legKey struct {
	peer netip.Addr
	ref  uint16
}

func (l *Leg) key() legKey { return legKey{l.Peer, l.Ref} }

// LegEvent is what an arriving message asks of the leg's host.
type LegEvent uint8

// Leg events. LegReleased is reported after the host's Released hook ran.
const (
	LegNothing  LegEvent = iota
	LegAlerted           // the called party rings (outgoing leg)
	LegAnswered          // the first Connect (outgoing leg); Leg.Media holds the far end's media
	LegReleased          // the far end released the call
)

// Receive runs call's leg on an arriving call-signalling message: it sends
// the protocol's replies (a ConnectAck for every Connect once the Setup is
// out, a CallProceeding for a duplicate Setup), stops T303 or T313 when the
// far end answers, and reports what the host must do. A late or repeated
// message never moves the leg back: only the first Alerting and the first
// Connect are reported.
func (t *Transactions[H, C]) Receive(env *sim.Env, call C, msg sim.Message) LegEvent {
	ep, leg, ok := t.host.CallLeg(call)
	if !ok || leg.State == LegReleasing {
		return LegNothing
	}
	outgoing := !leg.Incoming && leg.State != LegIdle
	switch m := msg.(type) {
	case q931.Setup:
		// A retransmitted Setup: the CallProceeding may have been lost.
		if leg.Incoming {
			ep.SendQ931(env, leg.Peer, q931.CallProceeding{CallRef: leg.Ref})
		}
	case q931.CallProceeding:
		if outgoing && leg.State == LegSetupSent {
			leg.State = LegProceeding
			t.q931.Take(call)
		}
	case q931.Alerting:
		if outgoing && leg.State <= LegProceeding {
			leg.State = LegAlerting
			t.q931.Take(call)
			return LegAlerted
		}
	case q931.Connect:
		// Every copy is acknowledged, so the answerer's T313 stops.
		if !outgoing {
			break
		}
		ep.SendQ931(env, leg.Peer, q931.ConnectAck{CallRef: leg.Ref})
		if leg.State != LegConnected {
			leg.State, leg.Media = LegConnected, m.Media
			t.q931.Take(call)
			return LegAnswered
		}
	case q931.ConnectAck:
		if leg.Incoming && leg.State == LegConnected {
			t.q931.Take(call)
		}
	case q931.ReleaseComplete:
		t.Reset(call)
		t.host.Released(env, call)
		return LegReleased
	}
	return LegNothing
}

// Setup sends call's Setup and starts T303.
func (t *Transactions[H, C]) Setup(env *sim.Env, call C, setup q931.Setup) {
	if _, leg, _ := t.host.CallLeg(call); leg.State == LegIdle {
		leg.State = LegSetupSent
		t.sendQ931(env, call, setup)
	}
}

// Proceed acknowledges the Setup that opened call's incoming leg.
func (t *Transactions[H, C]) Proceed(env *sim.Env, call C) {
	if ep, leg, ok := t.host.CallLeg(call); ok && leg.Incoming {
		leg.State = LegProceeding
		ep.SendQ931(env, leg.Peer, q931.CallProceeding{CallRef: leg.Ref})
	}
}

// Alert tells the caller of an incoming leg that the called party rings. Only
// a leg still proceeding rings: a repeated ring, or one after the answer,
// sends nothing and leaves the leg where it is.
func (t *Transactions[H, C]) Alert(env *sim.Env, call C) {
	if ep, leg, ok := t.host.CallLeg(call); ok && leg.Incoming && leg.State == LegProceeding {
		leg.State = LegAlerting
		ep.SendQ931(env, leg.Peer, q931.Alerting{CallRef: leg.Ref})
	}
}

// Connect answers an incoming leg with this end's media address and starts
// T313. It reports false when the leg cannot be answered (not incoming,
// already answered, or cleared).
func (t *Transactions[H, C]) Connect(env *sim.Env, call C, media q931.MediaAddr) bool {
	_, leg, _ := t.host.CallLeg(call)
	if !leg.Incoming || (leg.State != LegProceeding && leg.State != LegAlerting) {
		return false
	}
	leg.State = LegConnected
	t.sendQ931(env, call, q931.Connect{CallRef: leg.Ref, Media: media})
	return true
}

// Release clears call's leg from this end with a ReleaseComplete.
func (t *Transactions[H, C]) Release(env *sim.Env, call C, cause q931.Cause) {
	if ep, leg, ok := t.host.CallLeg(call); ok {
		ep.SendQ931(env, leg.Peer, q931.ReleaseComplete{CallRef: leg.Ref, Cause: cause})
	}
	t.Reset(call)
}

// Reset ends call's leg without a message: its cycle stops, so a live
// retransmission timer cannot resurrect the call, and it answers nothing more.
func (t *Transactions[H, C]) Reset(call C) {
	_, leg, _ := t.host.CallLeg(call)
	leg.State = LegReleasing
	t.q931.Take(call)
}
