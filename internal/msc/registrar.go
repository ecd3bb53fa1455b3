// Package msc implements the classic circuit-switched GSM MSC — the element
// the paper's VMSC replaces — plus the Registrar, the A-interface/VLR
// location-update engine that both the classic MSC and the VMSC share (their
// GSM signalling sides are identical by design; the paper's compatibility
// argument rests on exactly that).
//
// The classic MSC appears in the reproduction as the serving MSC of the
// tromboning baseline (Fig 7) and as the inter-system handoff target
// (Fig 9).
package msc

import (
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// Registration describes a completed (or failed) location update.
type Registration struct {
	MS       sim.NodeID
	BSC      sim.NodeID
	LAI      gsmid.LAI
	Identity gsmid.MobileIdentity
	IMSI     gsmid.IMSI
	TMSI     gsmid.TMSI
	MSISDN   gsmid.MSISDN
	Cause    sigmap.Cause
}

// OK reports whether the VLR accepted the update.
func (r Registration) OK() bool { return r.Cause == sigmap.CauseNone }

// Registrar drives the network side of the GSM location-update procedure
// between the A interface and the VLR (paper Fig 4 steps 1.1-1.2): it
// forwards the update to the VLR, relays the authentication challenge and
// ciphering command down the radio path, and reports the outcome to its
// owner. The owner decides when to send the Um-level accept — the VMSC
// defers it until after GPRS attach and gatekeeper registration (steps
// 1.3-1.6), while the classic MSC accepts immediately.
type Registrar struct {
	// Node is the owning (V)MSC's ID.
	Node sim.NodeID
	// VLR is the attached visitor location register.
	VLR sim.NodeID
	// RTO is the initial retransmission timeout for the UpdateLocationArea
	// invoke toward the VLR; it doubles on every retry. Zero means 1 second.
	RTO time.Duration
	// Retries bounds UpdateLocationArea retransmissions before the
	// transaction fails with CauseSystemFailure. Zero means 3.
	Retries int
	// OnOutcome fires when the VLR accepts or rejects the update.
	OnOutcome func(env *sim.Env, reg Registration)

	dm *ss7.DialogueManager
	// byIdentity finds the pending transaction when the VLR addresses the
	// MS by mobile identity (Authenticate, SetCipherMode). MobileIdentity
	// is comparable, so it keys the table directly — no String() formatting
	// on the hot path.
	byIdentity *txn.Table[gsmid.MobileIdentity, *regTxn]
	// byMS finds it when the radio path answers, and dedupes LocationUpdates.
	byMS *txn.Table[sim.NodeID, *regTxn]
}

type regTxn struct {
	r            *Registrar
	env          *sim.Env
	reg          Registration
	vlrInvoke    ss7.InvokeID
	authInvoke   ss7.InvokeID
	cipherInvoke ss7.InvokeID
}

// NewRegistrar returns a Registrar.
func NewRegistrar(node, vlr sim.NodeID, onOutcome func(*sim.Env, Registration)) *Registrar {
	return &Registrar{
		Node:       node,
		VLR:        vlr,
		RTO:        time.Second,
		Retries:    3,
		OnOutcome:  onOutcome,
		dm:         ss7.NewDialogueManager(node),
		byIdentity: txn.New[gsmid.MobileIdentity, *regTxn](nil, nil), // untimed, as byMS
		byMS:       txn.New[sim.NodeID, *regTxn](nil, nil),
	}
}

// Retransmits returns the number of MAP request PDUs this registrar has
// re-sent toward its VLR.
func (r *Registrar) Retransmits() uint64 { return r.dm.Retransmits() }

// Pending returns in-flight location-update transactions plus un-answered
// MAP invokes toward the VLR. Zero at quiescence.
func (r *Registrar) Pending() int { return r.byMS.InFlight() + r.dm.Outstanding() }

// Bytes and Imbalance are the transaction tables' share of the owner's
// Footprint and SlabImbalance audit.
func (r *Registrar) Bytes() int { return r.dm.Bytes() + r.byIdentity.Bytes() + r.byMS.Bytes() }
func (r *Registrar) Imbalance() int {
	return r.dm.Occupancy().Imbalance() + r.byIdentity.Occupancy().Imbalance() + r.byMS.Occupancy().Imbalance()
}

// Handle processes a message if it belongs to a location-update
// transaction, reporting whether it was consumed.
func (r *Registrar) Handle(env *sim.Env, from sim.NodeID, msg sim.Message) bool {
	switch m := msg.(type) {
	case gsm.LocationUpdate:
		r.start(env, from, m)
		return true
	case sigmap.Authenticate:
		t, ok := r.byIdentity.Get(m.Identity)
		if !ok {
			return false
		}
		t.authInvoke = m.Invoke
		env.Send(r.Node, t.reg.BSC, gsm.AuthRequest{Leg: gsm.LegA, MS: t.reg.MS, RAND: m.RAND})
		return true
	case gsm.AuthResponse:
		t, ok := r.byMS.Get(m.MS)
		if !ok {
			return false
		}
		env.Send(r.Node, r.VLR, sigmap.AuthenticateAck{
			Invoke: t.authInvoke, Cause: sigmap.CauseNone, SRES: m.SRES,
		})
		return true
	case sigmap.SetCipherMode:
		t, ok := r.byIdentity.Get(m.Identity)
		if !ok {
			return false
		}
		t.cipherInvoke = m.Invoke
		env.Send(r.Node, t.reg.BSC, gsm.CipherModeCommand{Leg: gsm.LegA, MS: t.reg.MS})
		return true
	case gsm.CipherModeComplete:
		t, ok := r.byMS.Get(m.MS)
		if !ok {
			return false
		}
		env.Send(r.Node, r.VLR, sigmap.SetCipherModeAck{
			Invoke: t.cipherInvoke, Cause: sigmap.CauseNone,
		})
		return true
	case sigmap.UpdateLocationAreaAck:
		return r.dm.Resolve(m.Invoke, msg)
	default:
		return false
	}
}

func (r *Registrar) start(env *sim.Env, bsc sim.NodeID, m gsm.LocationUpdate) {
	// A retransmitted LocationUpdate from the radio side must not spawn a
	// second VLR transaction while the first is in flight.
	slot := r.byMS.Begin(env, m.MS, txn.Policy{})
	if slot == nil {
		return
	}
	t := &regTxn{r: r, env: env, reg: Registration{
		MS: m.MS, BSC: bsc, LAI: m.LAI, Identity: m.Identity,
	}}
	*slot = t
	if byID := r.byIdentity.Begin(env, m.Identity, txn.Policy{}); byID != nil {
		*byID = t // two MSs claiming one identity: the VLR's challenge reaches the first
	}

	t.vlrInvoke = r.dm.InvokeRetryArg(regVLRDone, t)
	r.dm.Transmit(env, t.vlrInvoke, r.VLR, sigmap.UpdateLocationArea{
		Invoke: t.vlrInvoke, Identity: m.Identity, LAI: m.LAI, MSC: string(r.Node),
	}, r.RTO, r.Retries)
}

// regVLRDone completes the transaction when the VLR answers (or the invoke
// times out). The transaction record threads through InvokeArg, so starting
// a registration costs one allocation rather than a closure per step.
func regVLRDone(arg any, resp sim.Message, ok bool) {
	t := arg.(*regTxn)
	r := t.r
	ack, isAck := resp.(sigmap.UpdateLocationAreaAck)
	r.byIdentity.Take(t.reg.Identity)
	r.byMS.Take(t.reg.MS)
	reg := t.reg
	if !ok || !isAck {
		reg.Cause = sigmap.CauseSystemFailure
	} else {
		reg.Cause = ack.Cause
		reg.IMSI = ack.IMSI
		reg.TMSI = ack.TMSI
		reg.MSISDN = ack.MSISDN
	}
	if r.OnOutcome != nil {
		r.OnOutcome(t.env, reg)
	}
}
