// Package pstn models the public switched telephone network of the
// tromboning scenario (paper Figs 7-8): transit/local exchanges with
// prefix routing and ordered fallback routes, the gateway MSC (GMSC) HLR
// interrogation, fixed telephones, and circuit voice relaying. Trunk groups
// carry the tariff classes (local/national/international) whose seizure
// counts are the tromboning experiment's headline numbers.
package pstn

import (
	"strings"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
)

// Route is one routing-table row: calls to numbers matching Prefix go to
// Next over Trunks. A nil Trunks means a subscriber line or an untariffed
// internal link (no circuit seizure). Routes are tried in table order, so a
// cheap VoIP route can precede an international fallback (Fig 8).
type Route struct {
	Prefix string
	Next   sim.NodeID
	Trunks *isup.TrunkGroup
}

// ExchangeConfig parameterises an exchange node.
type ExchangeConfig struct {
	ID sim.NodeID
	// Routes is the ordered routing table.
	Routes []Route
	// HLR and MobilePrefixes enable the GMSC role: calls to numbers
	// matching a mobile prefix trigger MAP_SEND_ROUTING_INFORMATION and
	// are re-routed to the returned MSRN (Fig 7 step (1)->(2)).
	HLR            sim.NodeID
	MobilePrefixes []string
	// MAPTimeout bounds HLR dialogues. Zero means 5 seconds.
	MAPTimeout time.Duration
}

type leg struct {
	peer   sim.NodeID
	cic    isup.CIC
	trunks *isup.TrunkGroup
}

type call struct {
	ref        uint32
	up         leg
	down       leg
	hasDown    bool
	answered   bool
	called     gsmid.MSISDN
	calling    gsmid.MSISDN
	candidates []Route
}

// Exchange is a PSTN switch: it routes IAMs by longest-known prefix with
// ordered fallback, relays ISUP signalling and circuit voice between its
// two call legs, and (as a GMSC) interrogates the HLR for mobile numbers.
type Exchange struct {
	cfg ExchangeConfig
	dm  *ss7.DialogueManager

	calls map[uint32]*call
}

var _ sim.Node = (*Exchange)(nil)

// NewExchange returns an exchange.
func NewExchange(cfg ExchangeConfig) *Exchange {
	if cfg.MAPTimeout == 0 {
		cfg.MAPTimeout = 5 * time.Second
	}
	return &Exchange{cfg: cfg, dm: ss7.NewDialogueManager(cfg.ID), calls: make(map[uint32]*call)}
}

// ID implements sim.Node.
func (e *Exchange) ID() sim.NodeID { return e.cfg.ID }

// Audit reports the calls in progress for netsim's leak gate: zero once
// every call has cleared.
func (e *Exchange) Audit(report func(kind string, n int)) {
	report("active calls", len(e.calls))
}

// Receive implements sim.Node.
func (e *Exchange) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.IAM:
		e.handleIAM(env, from, m)
	case isup.ACM:
		e.relayUp(env, m.CallRef, func(up leg) sim.Message {
			return isup.ACM{CIC: up.cic, CallRef: m.CallRef}
		})
	case isup.ANM:
		if c := e.calls[m.CallRef]; c != nil {
			c.answered = true
		}
		e.relayUp(env, m.CallRef, func(up leg) sim.Message {
			return isup.ANM{CIC: up.cic, CallRef: m.CallRef}
		})
	case isup.REL:
		e.handleREL(env, from, m)
	case isup.RLC:
		// Circuit already freed when we sent/han the REL; nothing to do.
	case isup.TrunkFrame:
		e.relayVoice(env, from, m)
	case sigmap.SendRoutingInformationAck:
		e.dm.Resolve(m.Invoke, msg)
	}
}

func (e *Exchange) isMobileNumber(n gsmid.MSISDN) bool {
	for _, p := range e.cfg.MobilePrefixes {
		if strings.HasPrefix(string(n), p) {
			return true
		}
	}
	return false
}

func (e *Exchange) matchingRoutes(n gsmid.MSISDN) []Route {
	var out []Route
	for _, r := range e.cfg.Routes {
		if strings.HasPrefix(string(n), r.Prefix) {
			out = append(out, r)
		}
	}
	return out
}

func (e *Exchange) handleIAM(env *sim.Env, from sim.NodeID, m isup.IAM) {
	c := &call{
		ref:     m.CallRef,
		up:      leg{peer: from, cic: m.CIC},
		called:  m.Called,
		calling: m.Calling,
	}
	if _, dup := e.calls[m.CallRef]; dup {
		env.Send(e.cfg.ID, from, isup.REL{CIC: m.CIC, CallRef: m.CallRef, Cause: isup.CauseNetworkFailure})
		return
	}
	e.calls[m.CallRef] = c

	// GMSC role: mobile numbers are re-targeted to the MSRN the HLR
	// returns before routing (Fig 7).
	if e.cfg.HLR != "" && e.isMobileNumber(m.Called) {
		invoke := e.dm.Invoke(env, e.cfg.MAPTimeout, func(resp sim.Message, ok bool) {
			ack, isAck := resp.(sigmap.SendRoutingInformationAck)
			if !ok || !isAck || ack.Cause != sigmap.CauseNone {
				e.failCall(env, c, isup.CauseUnallocatedNumber)
				return
			}
			c.candidates = e.matchingRoutes(ack.MSRN)
			e.tryNextRoute(env, c, ack.MSRN)
		})
		env.Send(e.cfg.ID, e.cfg.HLR, sigmap.SendRoutingInformation{Invoke: invoke, MSISDN: m.Called})
		return
	}

	c.candidates = e.matchingRoutes(m.Called)
	e.tryNextRoute(env, c, m.Called)
}

// tryNextRoute attempts the first remaining candidate route.
func (e *Exchange) tryNextRoute(env *sim.Env, c *call, target gsmid.MSISDN) {
	for len(c.candidates) > 0 {
		r := c.candidates[0]
		c.candidates = c.candidates[1:]
		var cic isup.CIC
		if r.Trunks != nil {
			seized, err := r.Trunks.Seize()
			if err != nil {
				continue // all circuits busy; try the next route
			}
			cic = seized
		}
		c.down = leg{peer: r.Next, cic: cic, trunks: r.Trunks}
		c.hasDown = true
		env.Send(e.cfg.ID, r.Next, isup.IAM{
			CIC: cic, CallRef: c.ref, Called: target, Calling: c.calling,
		})
		return
	}
	e.failCall(env, c, isup.CauseUnallocatedNumber)
}

// failCall clears a call toward the caller.
func (e *Exchange) failCall(env *sim.Env, c *call, cause isup.ReleaseCause) {
	delete(e.calls, c.ref)
	if c.up.trunks != nil {
		c.up.trunks.Release(c.up.cic)
	}
	env.Send(e.cfg.ID, c.up.peer, isup.REL{CIC: c.up.cic, CallRef: c.ref, Cause: cause})
}

func (e *Exchange) relayUp(env *sim.Env, ref uint32, build func(up leg) sim.Message) {
	c := e.calls[ref]
	if c == nil {
		return
	}
	env.Send(e.cfg.ID, c.up.peer, build(c.up))
}

func (e *Exchange) handleREL(env *sim.Env, from sim.NodeID, m isup.REL) {
	c := e.calls[m.CallRef]
	if c == nil {
		env.Send(e.cfg.ID, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
		return
	}

	fromDownstream := c.hasDown && from == c.down.peer

	// Confirm release to the sender and free that side's circuit.
	env.Send(e.cfg.ID, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
	if fromDownstream {
		if c.down.trunks != nil {
			c.down.trunks.Release(c.down.cic)
		}
		c.hasDown = false
		// Fallback: an unanswered call refused downstream retries the
		// next candidate route (the Fig 8 VoIP-miss -> PSTN path).
		if !c.answered && len(c.candidates) > 0 &&
			(m.Cause == isup.CauseUnallocatedNumber || m.Cause == isup.CauseNoCircuit) {
			e.tryNextRoute(env, c, c.called)
			return
		}
	}

	// Relay the release to the other side and drop the call.
	var other leg
	var haveOther bool
	if fromDownstream {
		other, haveOther = c.up, true
	} else if c.hasDown {
		other, haveOther = c.down, true
	}
	delete(e.calls, m.CallRef)
	if haveOther {
		if other.trunks != nil {
			other.trunks.Release(other.cic)
		}
		env.Send(e.cfg.ID, other.peer, isup.REL{CIC: other.cic, CallRef: m.CallRef, Cause: m.Cause})
	}
}

func (e *Exchange) relayVoice(env *sim.Env, from sim.NodeID, m isup.TrunkFrame) {
	c := e.calls[m.CallRef]
	if c == nil {
		return
	}
	var out leg
	switch {
	case c.hasDown && from == c.up.peer:
		out = c.down
	case from == c.down.peer:
		out = c.up
	default:
		return
	}
	env.Send(e.cfg.ID, out.peer, isup.TrunkFrame{
		CIC: out.cic, CallRef: m.CallRef, Seq: m.Seq, Payload: m.Payload,
	})
}
