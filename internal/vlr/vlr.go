// Package vlr implements the GSM Visitor Location Register: the per-visited-
// area database that fronts the HLR for the serving (V)MSC. It drives the
// registration procedure of paper Fig 4 (authentication-vector fetch,
// challenge-response via the MSC, ciphering setup, HLR location update, TMSI
// allocation), authorizes outgoing calls (Fig 5 step 2.2), and allocates
// roaming numbers for incoming call delivery (Figs 6-7).
package vlr

import (
	"fmt"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// MMContext is the mobility-management state the VLR keeps per visiting MS.
// It is the public copy-out view; internally the VLR stores subscribers as
// fixed-size slab records (mmRec) so a million attached-but-idle visitors
// cost a bounded number of bytes each.
type MMContext struct {
	IMSI     gsmid.IMSI
	TMSI     gsmid.TMSI
	LAI      gsmid.LAI
	MSC      string
	Profile  sigmap.SubscriberProfile
	Ciphered bool
	// Triplets is the cache of unused authentication vectors.
	Triplets []sigmap.AuthTriplet
}

// maxCachedTriplets bounds the per-subscriber auth-vector cache. The VLR
// fetches 3 vectors per SendAuthenticationInfo, consumes one, and caches
// the rest; without a bound, repeated re-registrations grow the cache
// forever (the old []AuthTriplet append had exactly that leak).
const maxCachedTriplets = 2

// mmRec is the slab-resident MM context: fixed size, no heap pointers.
// Identities are BCD-packed, the serving MSC and LAI are interned symbols.
type mmRec struct {
	imsi       gsmid.PackedDigits
	profMSISDN gsmid.PackedDigits
	tmsi       gsmid.TMSI
	lai        uint32 // symbol in VLR.lais
	msc        uint32 // symbol in VLR.names
	flags      uint8
	voipQoS    uint8
	ntrip      uint8
	trips      [maxCachedTriplets]sigmap.AuthTriplet
}

// mmRec flag bits.
const (
	mmCiphered = 1 << iota
	mmIntlAllowed
	mmBarred
)

// Config parameterises a VLR node.
type Config struct {
	// ID is the node identifier, e.g. "VLR-1".
	ID sim.NodeID
	// HLR is the home location register this VLR updates. (A multi-PLMN
	// deployment routes per-IMSI; this reproduction attaches one VLR to
	// one HLR, which matches all the paper's scenarios.)
	HLR sim.NodeID
	// HomeCountryCode is the E.164 country code of the network this VLR
	// serves; calls to other country codes require the international
	// service in the subscriber profile.
	HomeCountryCode string
	// MSRNPrefix prefixes allocated roaming numbers; must yield valid
	// MSISDNs when a 4-digit suffix is appended.
	MSRNPrefix string
	// MSRNLifetime bounds how long an allocated roaming number stays
	// valid awaiting the incoming IAM. Zero means 30 seconds.
	MSRNLifetime time.Duration
	// SigRTO is the initial retransmission timeout for MAP dialogues this
	// VLR originates; it doubles on every retry. Zero means 1 second.
	SigRTO time.Duration
	// SigRetries bounds retransmissions per dialogue before it fails.
	// Zero means 3.
	SigRetries int
	// AuthDisabled skips the challenge-response and ciphering phases
	// (used by ablation benches to isolate their latency contribution).
	AuthDisabled bool
}

// VLR is the visitor location register node.
type VLR struct {
	cfg Config
	dm  *ss7.DialogueManager

	recs     *slab.Slab[mmRec]
	byIMSI   *slab.RowIndex[gsmid.PackedDigits, mmRec]
	byTMSI   *slab.RowIndex[uint32, mmRec]
	names    slab.Syms[string]    // MSC node names
	lais     slab.Syms[gsmid.LAI] // location areas
	msrn     map[gsmid.MSISDN]gsmid.IMSI
	nextTMSI uint32
	nextMSRN uint32

	// updating dedupes in-flight location updates: the MSC retransmits
	// UpdateLocationArea with the same invoke ID, and a duplicate must not
	// spawn a parallel authentication chain (TMSI churn, doubled HLR
	// updates).
	updating *txn.Table[ulaKey, struct{}]
}

// ulaKey identifies one in-flight location-update transaction by its
// originating MSC (its symbol in VLR.names, high half) and MAP invoke ID
// (retransmissions reuse both).
type ulaKey uint64

var _ sim.Node = (*VLR)(nil)

// New returns an empty VLR.
func New(cfg Config) *VLR {
	if cfg.SigRTO == 0 {
		cfg.SigRTO = time.Second
	}
	if cfg.MSRNLifetime == 0 {
		cfg.MSRNLifetime = 30 * time.Second
	}
	if cfg.MSRNPrefix == "" {
		cfg.MSRNPrefix = "88690000"
	}
	recs := slab.NewSlab[mmRec]()
	return &VLR{
		cfg:      cfg,
		dm:       ss7.NewDialogueManager(cfg.ID),
		recs:     recs,
		byIMSI:   slab.NewRowIndex(recs, gsmid.PackedDigits.Hash, func(k gsmid.PackedDigits, r *mmRec) bool { return r.imsi == k }),
		byTMSI:   slab.NewRowIndex(recs, slab.HashUint32, func(k uint32, r *mmRec) bool { return uint32(r.tmsi) == k }),
		msrn:     make(map[gsmid.MSISDN]gsmid.IMSI),
		updating: txn.New[ulaKey, struct{}](nil, nil), // untimed: the hooks never run
	}
}

// getOrCreateRec returns the record for an IMSI, allocating a fresh slab
// slot when the subscriber is new.
func (v *VLR) getOrCreateRec(imsi gsmid.IMSI) *mmRec {
	packed := imsi.Pack()
	if _, r := v.byIMSI.Get(packed); r != nil {
		return r
	}
	h, r := v.recs.Alloc()
	r.imsi = packed
	v.byIMSI.Put(packed, h)
	return r
}

// export copies a slab record out into the public MMContext view.
func (v *VLR) export(r *mmRec) MMContext {
	ctx := MMContext{
		IMSI: r.imsi.IMSI(),
		TMSI: r.tmsi,
		LAI:  v.lais.Val(r.lai),
		MSC:  v.names.Val(r.msc),
		Profile: sigmap.SubscriberProfile{
			MSISDN:               r.profMSISDN.MSISDN(),
			InternationalAllowed: r.flags&mmIntlAllowed != 0,
			VoIPQoS:              r.voipQoS,
			Barred:               r.flags&mmBarred != 0,
		},
		Ciphered: r.flags&mmCiphered != 0,
	}
	if r.ntrip > 0 {
		ctx.Triplets = append([]sigmap.AuthTriplet(nil), r.trips[:r.ntrip]...)
	}
	return ctx
}

// Retransmits returns the number of MAP request PDUs this VLR has re-sent.
func (v *VLR) Retransmits() uint64 { return v.dm.Retransmits() }

// TxnStats reports the MAP dialogue and update dedupe tables' lifetime counters.
func (v *VLR) TxnStats(report func(plane string, s txn.Stats)) {
	report("MAP", v.dm.Stats())
	report("location update", v.updating.Stats())
}

// PendingUpdates returns in-flight location-update transactions (not yet
// answered toward the requesting MSC). Zero at quiescence.
func (v *VLR) PendingUpdates() int { return v.updating.InFlight() }

// OutstandingDialogues returns un-answered MAP invokes this VLR has open.
func (v *VLR) OutstandingDialogues() int { return v.dm.Outstanding() }

// ID implements sim.Node.
func (v *VLR) ID() sim.NodeID { return v.cfg.ID }

// Lookup returns a copy of the MM context for the IMSI.
func (v *VLR) Lookup(imsi gsmid.IMSI) (MMContext, bool) {
	_, r := v.byIMSI.Get(imsi.Pack())
	if r == nil {
		return MMContext{}, false
	}
	return v.export(r), true
}

// Registered returns the number of MM contexts currently held.
func (v *VLR) Registered() int {
	return v.recs.Len()
}

// OutstandingMSRNs returns the number of roaming numbers awaiting use.
func (v *VLR) OutstandingMSRNs() int {
	return len(v.msrn)
}

// Audit reports every transient record this VLR holds, by kind, plus its
// storage audit — all zero at quiescence. netsim's leak gate walks it.
func (v *VLR) Audit(report func(kind string, n int)) {
	report("pending location updates", v.PendingUpdates())
	report("open dialogues", v.OutstandingDialogues())
	report("outstanding MSRNs", v.OutstandingMSRNs())
	report("slab imbalance", v.SlabImbalance())
}

// Footprint is the memory the subscriber store holds, in bytes: slab chunks
// (live rows and free ones alike), index tables and the two transaction
// tables, which a quiesced VLR holds at their floor. It is the VLR's share of
// "who owns which bytes of a resident subscriber" (EXPERIMENTS.md).
func (v *VLR) Footprint() int {
	return v.recs.Bytes() + v.byIMSI.Bytes() + v.byTMSI.Bytes() + v.dm.Bytes() + v.updating.Bytes()
}

// SlabImbalance audits the slab storage: occupancy must balance
// (cap == live + free) and every index entry must resolve to a live record
// that agrees with the key. Non-zero means a context leaked out of — or
// was lost by — the slab; the soak/leak gates assert zero the same way
// they assert empty residuals.
func (v *VLR) SlabImbalance() int {
	return v.dm.Occupancy().Imbalance() + v.updating.Occupancy().Imbalance() +
		v.byIMSI.Audit() + v.byTMSI.Stale()
}

// Receive implements sim.Node.
func (v *VLR) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case sigmap.UpdateLocationArea:
		v.handleUpdateLocationArea(env, from, m)
	case sigmap.SendInfoForOutgoingCall:
		v.handleOutgoingCall(env, from, m)
	case sigmap.SendInfoForIncomingCall:
		v.handleIncomingCall(env, from, m)
	case sigmap.InsertSubscriberData:
		v.handleInsertSubscriberData(env, from, m)
	case sigmap.CancelLocation:
		v.handleCancelLocation(env, from, m)
	case sigmap.ProvideRoamingNumber:
		v.handleProvideRoamingNumber(env, from, m)
	case sigmap.SendAuthenticationInfoAck,
		sigmap.UpdateLocationAck,
		sigmap.AuthenticateAck,
		sigmap.SetCipherModeAck:
		v.resolveAck(m)
	}
}

// resolveAck routes a MAP response to its pending invoke. The original
// interface value rides through to Resolve so the type switch does not
// re-box the message.
func (v *VLR) resolveAck(msg sim.Message) {
	switch m := msg.(type) {
	case sigmap.SendAuthenticationInfoAck:
		v.dm.Resolve(m.Invoke, msg)
	case sigmap.UpdateLocationAck:
		v.dm.Resolve(m.Invoke, msg)
	case sigmap.AuthenticateAck:
		v.dm.Resolve(m.Invoke, msg)
	case sigmap.SetCipherModeAck:
		v.dm.Resolve(m.Invoke, msg)
	}
}

// resolveIdentity maps a mobile identity to an IMSI using the TMSI table
// when needed. ok is false for unknown TMSIs (the MS must retry with IMSI,
// per GSM 04.08 identity-request handling, which this reproduction elides).
func (v *VLR) resolveIdentity(id gsmid.MobileIdentity) (gsmid.IMSI, bool) {
	switch id.Kind {
	case gsmid.IdentityIMSI:
		return id.IMSI, true
	case gsmid.IdentityTMSI:
		_, r := v.byTMSI.Get(uint32(id.TMSI))
		if r == nil {
			return "", false
		}
		return r.imsi.IMSI(), true
	default:
		return "", false
	}
}

// ulaTxn is the state of one location-update transaction. One record rides
// through every MAP invoke in the chain (via DialogueManager.InvokeArg), so
// the whole procedure costs a single allocation instead of a closure per
// step.
type ulaTxn struct {
	v         *VLR
	env       *sim.Env
	msc       sim.NodeID
	key       ulaKey
	m         sigmap.UpdateLocationArea
	imsi      gsmid.IMSI
	challenge sigmap.AuthTriplet
	ciphered  bool
}

func (t *ulaTxn) finish() {
	t.v.updating.Take(t.key)
}

func (t *ulaTxn) reject(cause sigmap.Cause) {
	t.finish()
	t.env.Send(t.v.cfg.ID, t.msc, sigmap.UpdateLocationAreaAck{Invoke: t.m.Invoke, Cause: cause})
}

// handleUpdateLocationArea drives paper steps 1.1-1.2 on the network side:
//
//	fetch auth vectors -> authenticate MS (via MSC) -> start ciphering ->
//	MAP_UPDATE_LOCATION to HLR (profile arrives via InsertSubscriberData)
//	-> allocate TMSI -> MAP_UPDATE_LOCATION_AREA_ack to the MSC.
func (v *VLR) handleUpdateLocationArea(env *sim.Env, msc sim.NodeID, m sigmap.UpdateLocationArea) {
	// The MSC retransmits a lost UpdateLocationArea with the same invoke
	// ID; a duplicate of an in-flight transaction is dropped here — the
	// original chain will answer it.
	key := ulaKey(v.names.ID(string(msc)))<<32 | ulaKey(m.Invoke)
	if v.updating.Begin(env, key, txn.Policy{}) == nil {
		return
	}
	t := &ulaTxn{v: v, env: env, msc: msc, key: key, m: m}
	imsi, ok := v.resolveIdentity(m.Identity)
	if !ok {
		t.reject(sigmap.CauseUnknownSubscriber)
		return
	}
	t.imsi = imsi

	if v.cfg.AuthDisabled {
		t.updateHLRAndConfirm()
		return
	}

	saiInvoke := v.dm.InvokeRetryArg(ulaAuthInfoDone, t)
	v.dm.Transmit(env, saiInvoke, v.cfg.HLR, sigmap.SendAuthenticationInfo{
		Invoke: saiInvoke, IMSI: imsi, Count: 3,
	}, v.cfg.SigRTO, v.cfg.SigRetries)
}

// ulaAuthInfoDone receives the HLR's auth vectors and starts the
// challenge-response through the MSC.
func ulaAuthInfoDone(arg any, resp sim.Message, ok bool) {
	t := arg.(*ulaTxn)
	ack, isAck := resp.(sigmap.SendAuthenticationInfoAck)
	if !ok || !isAck || ack.Cause != sigmap.CauseNone || len(ack.Triplets) == 0 {
		t.reject(sigmap.CauseSystemFailure)
		return
	}
	v := t.v
	t.challenge = ack.Triplets[0]
	authInvoke := v.dm.InvokeRetryArg(ulaAuthenticateDone, t)
	v.dm.Transmit(t.env, authInvoke, t.msc, sigmap.Authenticate{
		Invoke: authInvoke, Identity: t.m.Identity, RAND: t.challenge.RAND,
	}, v.cfg.SigRTO, v.cfg.SigRetries)
	// Remaining triplets are cached for later transactions, capped at the
	// record's fixed-size cache (overflow vectors are simply refetched).
	if _, r := v.byIMSI.Get(t.imsi.Pack()); r != nil {
		for _, trip := range ack.Triplets[1:] {
			if int(r.ntrip) >= maxCachedTriplets {
				break
			}
			r.trips[r.ntrip] = trip
			r.ntrip++
		}
	}
}

// ulaAuthenticateDone verifies SRES and starts ciphering.
func ulaAuthenticateDone(arg any, resp sim.Message, ok bool) {
	t := arg.(*ulaTxn)
	ack, isAck := resp.(sigmap.AuthenticateAck)
	if !ok || !isAck || ack.Cause != sigmap.CauseNone || ack.SRES != t.challenge.SRES {
		t.reject(sigmap.CauseNotAllowed)
		return
	}
	v := t.v
	cipherInvoke := v.dm.InvokeRetryArg(ulaCipherDone, t)
	v.dm.Transmit(t.env, cipherInvoke, t.msc, sigmap.SetCipherMode{
		Invoke: cipherInvoke, Identity: t.m.Identity, Kc: t.challenge.Kc,
	}, v.cfg.SigRTO, v.cfg.SigRetries)
}

// ulaCipherDone confirms ciphering and proceeds to the HLR update.
func ulaCipherDone(arg any, resp sim.Message, ok bool) {
	t := arg.(*ulaTxn)
	cAck, isC := resp.(sigmap.SetCipherModeAck)
	if !ok || !isC || cAck.Cause != sigmap.CauseNone {
		t.reject(sigmap.CauseSystemFailure)
		return
	}
	t.ciphered = true
	t.updateHLRAndConfirm()
}

// updateHLRAndConfirm performs the HLR update and completes the location
// update toward the MSC.
func (t *ulaTxn) updateHLRAndConfirm() {
	v := t.v
	ulInvoke := v.dm.InvokeRetryArg(ulaHLRDone, t)
	v.dm.Transmit(t.env, ulInvoke, v.cfg.HLR, sigmap.UpdateLocation{
		Invoke: ulInvoke, IMSI: t.imsi, VLR: string(v.cfg.ID), MSC: t.m.MSC,
	}, v.cfg.SigRTO, v.cfg.SigRetries)
}

// ulaHLRDone installs the MM context and answers the MSC.
func ulaHLRDone(arg any, resp sim.Message, ok bool) {
	t := arg.(*ulaTxn)
	v := t.v
	ack, isAck := resp.(sigmap.UpdateLocationAck)
	if !ok || !isAck || ack.Cause != sigmap.CauseNone {
		cause := sigmap.CauseSystemFailure
		if isAck {
			cause = ack.Cause
		}
		t.reject(cause)
		return
	}
	tmsi, msisdn := v.createContext(t.imsi, t.m.LAI, t.m.MSC, t.ciphered)
	t.finish()
	t.env.Send(v.cfg.ID, t.msc, sigmap.UpdateLocationAreaAck{
		Invoke: t.m.Invoke, Cause: sigmap.CauseNone, IMSI: t.imsi, TMSI: tmsi,
		MSISDN: msisdn,
	})
}

// createContext installs (or refreshes) the MM context and allocates a
// TMSI, returning it with the profile MSISDN for the ack.
func (v *VLR) createContext(imsi gsmid.IMSI, lai gsmid.LAI, msc string, ciphered bool) (gsmid.TMSI, gsmid.MSISDN) {
	r := v.getOrCreateRec(imsi)
	if r.tmsi != 0 {
		v.byTMSI.Delete(uint32(r.tmsi))
	}
	v.nextTMSI++
	r.tmsi = gsmid.TMSI(v.nextTMSI)
	r.lai = v.lais.ID(lai)
	r.msc = v.names.ID(msc)
	if ciphered {
		r.flags |= mmCiphered
	} else {
		r.flags &^= mmCiphered
	}
	h, _ := v.byIMSI.Get(r.imsi)
	v.byTMSI.Put(uint32(r.tmsi), h)
	return r.tmsi, r.profMSISDN.MSISDN()
}

func (v *VLR) handleInsertSubscriberData(env *sim.Env, from sim.NodeID, m sigmap.InsertSubscriberData) {
	// Profile may arrive before the UpdateLocationAck installs the
	// context: getOrCreateRec creates a provisional one.
	r := v.getOrCreateRec(m.IMSI)
	r.profMSISDN = m.Profile.MSISDN.Pack()
	r.voipQoS = m.Profile.VoIPQoS
	r.flags &^= mmIntlAllowed | mmBarred
	if m.Profile.InternationalAllowed {
		r.flags |= mmIntlAllowed
	}
	if m.Profile.Barred {
		r.flags |= mmBarred
	}
	env.Send(v.cfg.ID, from, sigmap.InsertSubscriberDataAck{Invoke: m.Invoke})
}

func (v *VLR) handleCancelLocation(env *sim.Env, from sim.NodeID, m sigmap.CancelLocation) {
	var servingMSC string
	if h, r := v.byIMSI.Get(m.IMSI.Pack()); r != nil {
		servingMSC = v.names.Val(r.msc)
		if r.tmsi != 0 {
			v.byTMSI.Delete(uint32(r.tmsi))
		}
		v.byIMSI.Delete(r.imsi)
		v.recs.Free(h)
	}
	// The subscriber left this service area: the (V)MSC holding state for
	// it (the VMSC's MS table, its gatekeeper registration, its GPRS
	// contexts) must clean up too (paper §5: the old VMSC releases the
	// H.323 registration when the MS moves away).
	if servingMSC != "" && env.HasLink(v.cfg.ID, sim.NodeID(servingMSC)) {
		env.Send(v.cfg.ID, sim.NodeID(servingMSC), sigmap.CancelLocation{IMSI: m.IMSI})
	}
	env.Send(v.cfg.ID, from, sigmap.CancelLocationAck{Invoke: m.Invoke})
}

// handleOutgoingCall authorizes an MS-originated call (paper step 2.2).
func (v *VLR) handleOutgoingCall(env *sim.Env, from sim.NodeID, m sigmap.SendInfoForOutgoingCall) {
	reply := func(cause sigmap.Cause, imsi gsmid.IMSI, msisdn gsmid.MSISDN) {
		env.Send(v.cfg.ID, from, sigmap.SendInfoForOutgoingCallAck{
			Invoke: m.Invoke, Cause: cause, IMSI: imsi, MSISDN: msisdn,
		})
	}
	imsi, ok := v.resolveIdentity(m.Identity)
	if !ok {
		reply(sigmap.CauseUnknownSubscriber, "", "")
		return
	}
	_, r := v.byIMSI.Get(imsi.Pack())
	switch {
	case r == nil:
		reply(sigmap.CauseUnknownSubscriber, "", "")
	case r.flags&mmBarred != 0:
		reply(sigmap.CauseNotAllowed, imsi, r.profMSISDN.MSISDN())
	case v.isInternational(m.Called) && r.flags&mmIntlAllowed == 0:
		reply(sigmap.CauseNotAllowed, imsi, r.profMSISDN.MSISDN())
	default:
		reply(sigmap.CauseNone, imsi, r.profMSISDN.MSISDN())
	}
}

func (v *VLR) isInternational(called gsmid.MSISDN) bool {
	return v.cfg.HomeCountryCode != "" && called.CountryCode() != v.cfg.HomeCountryCode
}

// handleProvideRoamingNumber allocates an MSRN for an incoming call (HLR
// interrogation path, Figs 6-7).
func (v *VLR) handleProvideRoamingNumber(env *sim.Env, from sim.NodeID, m sigmap.ProvideRoamingNumber) {
	if _, r := v.byIMSI.Get(m.IMSI.Pack()); r == nil {
		env.Send(v.cfg.ID, from, sigmap.ProvideRoamingNumberAck{
			Invoke: m.Invoke, Cause: sigmap.CauseAbsentSubscriber,
		})
		return
	}
	v.nextMSRN++
	msrn := gsmid.MSISDN(fmt.Sprintf("%s%04d", v.cfg.MSRNPrefix, v.nextMSRN%10000))
	v.msrn[msrn] = m.IMSI
	// Reclaim the MSRN if the IAM never arrives.
	env.After(v.cfg.MSRNLifetime, func() { delete(v.msrn, msrn) })
	env.Send(v.cfg.ID, from, sigmap.ProvideRoamingNumberAck{
		Invoke: m.Invoke, Cause: sigmap.CauseNone, MSRN: msrn,
	})
}

// handleIncomingCall resolves an MSRN back to the subscriber when the IAM
// reaches the serving (V)MSC.
func (v *VLR) handleIncomingCall(env *sim.Env, from sim.NodeID, m sigmap.SendInfoForIncomingCall) {
	imsi, ok := v.msrn[m.MSRN]
	if !ok {
		env.Send(v.cfg.ID, from, sigmap.SendInfoForIncomingCallAck{
			Invoke: m.Invoke, Cause: sigmap.CauseUnknownSubscriber,
		})
		return
	}
	delete(v.msrn, m.MSRN) // single use
	var msisdn gsmid.MSISDN
	if _, r := v.byIMSI.Get(imsi.Pack()); r != nil {
		msisdn = r.profMSISDN.MSISDN()
	}
	env.Send(v.cfg.ID, from, sigmap.SendInfoForIncomingCallAck{
		Invoke: m.Invoke, Cause: sigmap.CauseNone, IMSI: imsi, MSISDN: msisdn,
	})
}
