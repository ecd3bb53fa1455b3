// Package hlr implements the GSM Home Location Register: the per-subscriber
// master database queried and updated over MAP. It serves location updating
// (paper Fig 4 step 1.2), authentication-vector generation, routing-info
// interrogation for call delivery and tromboning (Figs 6-7), and GPRS
// location management for the SGSN/GGSN (Gr/Gc interfaces, step 1.3).
package hlr

import (
	"fmt"
	"sync"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// Subscriber is the provisioned (static) part of an HLR record.
type Subscriber struct {
	IMSI   gsmid.IMSI
	MSISDN gsmid.MSISDN
	// Ki is the subscriber's secret authentication key (shared with the
	// SIM; in this reproduction, with the MS node).
	Ki [16]byte
	// Profile is inserted into the serving VLR at registration.
	Profile sigmap.SubscriberProfile
	// StaticPDPAddress, when non-empty, is the provisioned static IP for
	// GPRS. Network-initiated PDP activation (the TR 23.923 MT-call path)
	// requires it.
	StaticPDPAddress string
}

// Record is a live HLR record: the subscription plus current registration
// state.
type Record struct {
	Subscriber
	// VLR and MSC name the current circuit-switched serving elements
	// (empty while detached).
	VLR string
	MSC string
	// SGSN names the current packet-switched serving element (empty while
	// GPRS-detached).
	SGSN string
}

// hlrShards is the slab fan-out; subscribers spread by IMSI hash.
const hlrShards = 8

// hlrRec is the slab-resident subscriber record: fixed size, pointer-free.
// Identities are BCD-packed; serving-element names and the static PDP
// address are interned symbols (their cardinality is bounded by topology
// size and provisioned statics, not subscriber count).
type hlrRec struct {
	imsi       gsmid.PackedDigits
	msisdn     gsmid.PackedDigits
	profMSISDN gsmid.PackedDigits
	ki         [16]byte
	flags      uint8
	voipQoS    uint8
	static     uint32 // symbol in HLR.strs
	vlr        uint32 // symbol in HLR.strs
	msc        uint32 // symbol in HLR.strs
	sgsn       uint32 // symbol in HLR.strs
}

// hlrRec flag bits.
const (
	hlrIntlAllowed = 1 << iota
	hlrBarred
)

// Config parameterises an HLR node.
type Config struct {
	// ID is the node identifier, e.g. "HLR-TW".
	ID sim.NodeID
	// SigRTO is the initial retransmission timeout for each MAP dialogue
	// the HLR originates (InsertSubscriberData, ProvideRoamingNumber,
	// CancelLocation); it doubles on every retry. Zero means 1 second.
	SigRTO time.Duration
	// SigRetries bounds retransmissions per dialogue. Zero means 3.
	SigRetries int
}

// HLR is the home location register node.
type HLR struct {
	cfg Config
	dm  *ss7.DialogueManager

	mu       sync.Mutex
	recs     *slab.Sharded[hlrRec]
	byIMSI   *slab.Index[gsmid.PackedDigits]
	byMSISDN *slab.Index[gsmid.PackedDigits]
	strs     slab.Syms[string] // node names + static PDP addresses
}

var _ sim.Node = (*HLR)(nil)

// New returns an HLR with no subscribers.
func New(cfg Config) *HLR {
	if cfg.SigRTO == 0 {
		cfg.SigRTO = time.Second
	}
	return &HLR{
		cfg:      cfg,
		dm:       ss7.NewDialogueManager(cfg.ID),
		recs:     slab.NewSharded[hlrRec](hlrShards),
		byIMSI:   slab.NewIndex[gsmid.PackedDigits](gsmid.PackedDigits.Hash),
		byMSISDN: slab.NewIndex[gsmid.PackedDigits](gsmid.PackedDigits.Hash),
	}
}

// ID implements sim.Node.
func (h *HLR) ID() sim.NodeID { return h.cfg.ID }

// Retransmits returns the number of MAP request PDUs this HLR has re-sent.
func (h *HLR) Retransmits() uint64 { return h.dm.Retransmits() }

// TxnStats reports the MAP dialogue table's lifetime counters.
func (h *HLR) TxnStats(report func(plane string, s txn.Stats)) { report("MAP", h.dm.Stats()) }

// OutstandingDialogues returns un-answered MAP invokes this HLR has open.
func (h *HLR) OutstandingDialogues() int { return h.dm.Outstanding() }

// Subscribers returns the number of provisioned records.
func (h *HLR) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs.Len()
}

// lookupRec resolves an IMSI to its slab record. Callers hold h.mu.
func (h *HLR) lookupRec(imsi gsmid.IMSI) *hlrRec {
	return h.recs.Get(h.byIMSI.Get(imsi.Pack()))
}

// export copies a slab record out into the public Record view.
func (h *HLR) export(r *hlrRec) Record {
	return Record{
		Subscriber: Subscriber{
			IMSI:   r.imsi.IMSI(),
			MSISDN: r.msisdn.MSISDN(),
			Ki:     r.ki,
			Profile: sigmap.SubscriberProfile{
				MSISDN:               r.profMSISDN.MSISDN(),
				InternationalAllowed: r.flags&hlrIntlAllowed != 0,
				VoIPQoS:              r.voipQoS,
				Barred:               r.flags&hlrBarred != 0,
			},
			StaticPDPAddress: h.strs.Val(r.static),
		},
		VLR:  h.strs.Val(r.vlr),
		MSC:  h.strs.Val(r.msc),
		SGSN: h.strs.Val(r.sgsn),
	}
}

// Provision adds a subscriber. It returns an error on duplicate IMSI or
// MSISDN.
func (h *HLR) Provision(s Subscriber) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	imsi, msisdn := s.IMSI.Pack(), s.MSISDN.Pack()
	if !h.byIMSI.Get(imsi).IsZero() {
		return fmt.Errorf("hlr: duplicate IMSI %s", s.IMSI)
	}
	if !h.byMSISDN.Get(msisdn).IsZero() {
		return fmt.Errorf("hlr: duplicate MSISDN %s", s.MSISDN)
	}
	shard := int(imsi.Hash() & (hlrShards - 1))
	hd, r := h.recs.Alloc(shard)
	r.imsi = imsi
	r.msisdn = msisdn
	r.ki = s.Ki
	r.profMSISDN = s.Profile.MSISDN.Pack()
	r.voipQoS = s.Profile.VoIPQoS
	if s.Profile.InternationalAllowed {
		r.flags |= hlrIntlAllowed
	}
	if s.Profile.Barred {
		r.flags |= hlrBarred
	}
	r.static = h.strs.ID(s.StaticPDPAddress)
	h.byIMSI.Put(imsi, hd)
	h.byMSISDN.Put(msisdn, hd)
	return nil
}

// Lookup returns a copy of the record for the IMSI.
func (h *HLR) Lookup(imsi gsmid.IMSI) (Record, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.lookupRec(imsi)
	if r == nil {
		return Record{}, false
	}
	return h.export(r), true
}

// LookupByMSISDN returns a copy of the record for the MSISDN.
func (h *HLR) LookupByMSISDN(msisdn gsmid.MSISDN) (Record, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.recs.Get(h.byMSISDN.Get(msisdn.Pack()))
	if r == nil {
		return Record{}, false
	}
	return h.export(r), true
}

// Audit reports every transient record this HLR holds, by kind, plus its
// storage audit — all zero at quiescence. netsim's leak gate walks it.
func (h *HLR) Audit(report func(kind string, n int)) {
	report("open dialogues", h.OutstandingDialogues())
	report("slab imbalance", h.SlabImbalance())
}

// Footprint is the memory the subscriber store holds, in bytes: slab chunks
// plus index tables, and the MAP dialogue table.
func (h *HLR) Footprint() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs.Bytes() + h.byIMSI.Bytes() + h.byMSISDN.Bytes() + h.dm.Bytes()
}

// SlabImbalance audits the slab storage: both identity indexes must hold
// exactly one entry per live record and per-shard occupancy must balance.
// Non-zero means records were lost or leaked.
func (h *HLR) SlabImbalance() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	imb := h.dm.Occupancy().Imbalance()
	perShard := make([]int, hlrShards)
	h.byIMSI.Range(func(k gsmid.PackedDigits, hd slab.Handle) bool {
		r := h.recs.Get(hd)
		if r == nil || r.imsi != k {
			imb++
			return true
		}
		perShard[hd.Shard()]++
		return true
	})
	for _, a := range h.recs.Audit() {
		imb += a.Imbalance() + abs(perShard[a.Shard]-a.Live)
	}
	h.byMSISDN.Range(func(k gsmid.PackedDigits, hd slab.Handle) bool {
		if r := h.recs.Get(hd); r == nil || r.msisdn != k {
			imb++
		}
		return true
	})
	return imb
}

func abs(d int) int {
	if d < 0 {
		return -d
	}
	return d
}

// Receive implements sim.Node: the MAP server side of the HLR.
func (h *HLR) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case sigmap.UpdateLocation:
		h.handleUpdateLocation(env, from, m)
	case sigmap.SendAuthenticationInfo:
		h.handleSendAuthInfo(env, from, m)
	case sigmap.SendRoutingInformation:
		h.handleSendRoutingInfo(env, from, m)
	case sigmap.UpdateGPRSLocation:
		h.handleUpdateGPRSLocation(env, from, m)
	case sigmap.SendRoutingInfoForGPRS:
		h.handleSendRoutingInfoForGPRS(env, from, m)
	case sigmap.SendIMSI:
		h.handleSendIMSI(env, from, m)
	case sigmap.InsertSubscriberDataAck:
		h.dm.Resolve(m.Invoke, msg)
	case sigmap.CancelLocationAck:
		h.dm.Resolve(m.Invoke, msg)
	case sigmap.ProvideRoamingNumberAck:
		h.dm.Resolve(m.Invoke, msg)
	}
}

// handleUpdateLocation runs paper step 1.2 from the HLR side: cancel the old
// VLR if the subscriber moved, push the subscription profile into the new
// VLR, then confirm.
func (h *HLR) handleUpdateLocation(env *sim.Env, from sim.NodeID, m sigmap.UpdateLocation) {
	h.mu.Lock()
	rec := h.lookupRec(m.IMSI)
	ok := rec != nil
	var oldVLR string
	var profile sigmap.SubscriberProfile
	if ok {
		oldVLR = h.strs.Val(rec.vlr)
		rec.vlr = h.strs.ID(m.VLR)
		rec.msc = h.strs.ID(m.MSC)
		profile = sigmap.SubscriberProfile{
			MSISDN:               rec.profMSISDN.MSISDN(),
			InternationalAllowed: rec.flags&hlrIntlAllowed != 0,
			VoIPQoS:              rec.voipQoS,
			Barred:               rec.flags&hlrBarred != 0,
		}
	}
	h.mu.Unlock()

	if !ok {
		env.Send(h.cfg.ID, from, sigmap.UpdateLocationAck{
			Invoke: m.Invoke, Cause: sigmap.CauseUnknownSubscriber,
		})
		return
	}

	if oldVLR != "" && oldVLR != m.VLR && env.HasLink(h.cfg.ID, sim.NodeID(oldVLR)) {
		cancelInvoke := h.dm.InvokeRetry(func(sim.Message, bool) {})
		h.dm.Transmit(env, cancelInvoke, sim.NodeID(oldVLR), sigmap.CancelLocation{
			Invoke: cancelInvoke, IMSI: m.IMSI,
		}, h.cfg.SigRTO, h.cfg.SigRetries)
	}

	isdInvoke := h.dm.InvokeRetry(func(_ sim.Message, ok bool) {
		cause := sigmap.CauseNone
		if !ok {
			cause = sigmap.CauseSystemFailure
		}
		env.Send(h.cfg.ID, from, sigmap.UpdateLocationAck{Invoke: m.Invoke, Cause: cause})
	})
	h.dm.Transmit(env, isdInvoke, from, sigmap.InsertSubscriberData{
		Invoke: isdInvoke, IMSI: m.IMSI, Profile: profile,
	}, h.cfg.SigRTO, h.cfg.SigRetries)
}

func (h *HLR) handleSendAuthInfo(env *sim.Env, from sim.NodeID, m sigmap.SendAuthenticationInfo) {
	h.mu.Lock()
	rec := h.lookupRec(m.IMSI)
	ok := rec != nil
	var ki [16]byte
	if ok {
		ki = rec.ki
	}
	h.mu.Unlock()

	if !ok {
		env.Send(h.cfg.ID, from, sigmap.SendAuthenticationInfoAck{
			Invoke: m.Invoke, Cause: sigmap.CauseUnknownSubscriber,
		})
		return
	}
	count := int(m.Count)
	if count == 0 {
		count = 1
	}
	triplets := make([]sigmap.AuthTriplet, 0, count)
	for i := 0; i < count; i++ {
		var rand [16]byte
		// Draw from the environment's seeded RNG so runs reproduce.
		for j := range rand {
			rand[j] = byte(env.Rand().Intn(256))
		}
		triplets = append(triplets, GenerateTriplet(ki, rand))
	}
	env.Send(h.cfg.ID, from, sigmap.SendAuthenticationInfoAck{
		Invoke: m.Invoke, Cause: sigmap.CauseNone, Triplets: triplets,
	})
}

// handleSendRoutingInfo is the call-delivery interrogation of Fig 7: the
// GMSC asks where the subscriber is; the HLR relays to the serving VLR for
// an MSRN and returns it.
func (h *HLR) handleSendRoutingInfo(env *sim.Env, from sim.NodeID, m sigmap.SendRoutingInformation) {
	h.mu.Lock()
	rec := h.recs.Get(h.byMSISDN.Get(m.MSISDN.Pack()))
	ok := rec != nil
	var imsi gsmid.IMSI
	var vlr string
	if ok {
		imsi = rec.imsi.IMSI()
		vlr = h.strs.Val(rec.vlr)
	}
	h.mu.Unlock()

	if !ok {
		env.Send(h.cfg.ID, from, sigmap.SendRoutingInformationAck{
			Invoke: m.Invoke, Cause: sigmap.CauseUnknownSubscriber,
		})
		return
	}
	if vlr == "" {
		env.Send(h.cfg.ID, from, sigmap.SendRoutingInformationAck{
			Invoke: m.Invoke, Cause: sigmap.CauseAbsentSubscriber,
		})
		return
	}

	prnInvoke := h.dm.InvokeRetry(func(resp sim.Message, ok bool) {
		ack := sigmap.SendRoutingInformationAck{Invoke: m.Invoke, Cause: sigmap.CauseSystemFailure}
		if ok {
			if prn, isPRN := resp.(sigmap.ProvideRoamingNumberAck); isPRN {
				ack.Cause = prn.Cause
				ack.MSRN = prn.MSRN
			}
		}
		env.Send(h.cfg.ID, from, ack)
	})
	h.dm.Transmit(env, prnInvoke, sim.NodeID(vlr), sigmap.ProvideRoamingNumber{
		Invoke: prnInvoke, IMSI: imsi, GMSC: string(from),
	}, h.cfg.SigRTO, h.cfg.SigRetries)
}

// handleSendIMSI resolves MSISDN -> IMSI. Serving it to an H.323 gatekeeper
// is exactly the confidentiality leak the paper's §6 holds against the
// TR 23.923 architecture; the HLR cannot tell callers apart, which is the
// point.
func (h *HLR) handleSendIMSI(env *sim.Env, from sim.NodeID, m sigmap.SendIMSI) {
	h.mu.Lock()
	rec := h.recs.Get(h.byMSISDN.Get(m.MSISDN.Pack()))
	h.mu.Unlock()
	ack := sigmap.SendIMSIAck{Invoke: m.Invoke}
	if rec == nil {
		ack.Cause = sigmap.CauseUnknownSubscriber
	} else {
		ack.IMSI = rec.imsi.IMSI()
	}
	env.Send(h.cfg.ID, from, ack)
}

func (h *HLR) handleUpdateGPRSLocation(env *sim.Env, from sim.NodeID, m sigmap.UpdateGPRSLocation) {
	h.mu.Lock()
	rec := h.lookupRec(m.IMSI)
	ok := rec != nil
	var oldSGSN string
	if ok {
		oldSGSN = h.strs.Val(rec.sgsn)
		rec.sgsn = h.strs.ID(m.SGSN)
	}
	h.mu.Unlock()

	cause := sigmap.CauseNone
	if !ok {
		cause = sigmap.CauseUnknownSubscriber
	}
	// Inter-SGSN mobility (GSM 03.60 §6.9.1): the HLR cancels the old
	// SGSN's MM and PDP contexts when a new SGSN takes over.
	if ok && oldSGSN != "" && oldSGSN != m.SGSN && env.HasLink(h.cfg.ID, sim.NodeID(oldSGSN)) {
		invoke := h.dm.InvokeRetry(func(sim.Message, bool) {})
		h.dm.Transmit(env, invoke, sim.NodeID(oldSGSN), sigmap.CancelLocation{
			Invoke: invoke, IMSI: m.IMSI,
		}, h.cfg.SigRTO, h.cfg.SigRetries)
	}
	env.Send(h.cfg.ID, from, sigmap.UpdateGPRSLocationAck{Invoke: m.Invoke, Cause: cause})
}

func (h *HLR) handleSendRoutingInfoForGPRS(env *sim.Env, from sim.NodeID, m sigmap.SendRoutingInfoForGPRS) {
	h.mu.Lock()
	rec := h.lookupRec(m.IMSI)
	ok := rec != nil
	var sgsn, static string
	if ok {
		sgsn = h.strs.Val(rec.sgsn)
		static = h.strs.Val(rec.static)
	}
	h.mu.Unlock()

	ack := sigmap.SendRoutingInfoForGPRSAck{Invoke: m.Invoke}
	switch {
	case !ok:
		ack.Cause = sigmap.CauseUnknownSubscriber
	case sgsn == "":
		ack.Cause = sigmap.CauseAbsentSubscriber
	default:
		ack.SGSN = sgsn
		ack.StaticPDPAddress = static
	}
	env.Send(h.cfg.ID, from, ack)
}
