package vmsc

import (
	"net/netip"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/msc"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
)

// rowState is where an MS-table row stands in the Fig 4 procedure and its
// reverse. In the four states that run a chain exactly one step of it is in
// flight, and that step's completion moves the row on.
type rowState uint8

const (
	rowResident      rowState = iota // not registered: provisioned, detached, or failed keeping what it got
	rowRegistering                   // steps 1.3-1.5 run; the outcome answers the radio path
	rowRegistered                    // reachable over vGPRS
	rowReregistering                 // registered; a silent full RRQ runs (the gatekeeper lost the alias)
	rowDeregistering                 // detached: alias and GPRS attachment come off, then resident
	rowPurging                       // cancelled: the same unwinding ends by freeing the row
)

func (e *msEntry) registered() bool { return e.state == rowRegistered || e.state == rowReregistering }
func (e *msEntry) leaving() bool    { return e.state == rowDeregistering || e.state == rowPurging }

// row resolves the row of a continuation outside the chains: nil once freed or leaving.
func (v *VMSC) row(owner slab.Handle) *msEntry {
	if e := v.ents.Get(owner); e != nil && !e.leaving() {
		return e
	}
	return nil
}

// regStep resolves the row a registration step completed for: nil once freed,
// and nil for a leaving row after the step carried its unwinding on from where
// it stands (aliasUp: the gatekeeper now holds the alias).
func (v *VMSC) regStep(env *sim.Env, owner slab.Handle, aliasUp bool) *msEntry {
	e := v.ents.Get(owner)
	if e != nil && e.leaving() {
		v.unwind(env, e, aliasUp)
		return nil
	}
	return e
}

// onVLROutcome continues the Fig 4 registration after the VLR accepted or
// rejected the location update (end of step 1.2). On success the VMSC runs
// steps 1.3-1.5 (GPRS attach, signalling-PDP activation, gatekeeper
// registration) before accepting toward the MS (step 1.6).
func (v *VMSC) onVLROutcome(env *sim.Env, reg msc.Registration) {
	if !reg.OK() {
		v.stats.RegisterFailers++
		env.Send(v.cfg.ID, reg.BSC, gsm.LocationUpdateReject{
			Leg: gsm.LegA, MS: reg.MS, Cause: uint8(reg.Cause),
		})
		return
	}

	entry := v.getOrCreateEntry(reg.IMSI)
	entry.tmsi = reg.TMSI
	entry.lai = v.lais.ID(reg.LAI)
	entry.bsc = v.nodes.ID(reg.BSC)
	if entry.ms != reg.MS {
		if entry.ms != "" {
			v.byMS.Delete(entry.ms)
		}
		entry.ms = reg.MS
		v.byMS.Put(reg.MS, entry.self)
	}
	v.setMSISDN(entry, reg.MSISDN)

	switch entry.state {
	case rowRegistered, rowReregistering:
		// Re-registration (location update due to movement, paper §3
		// closing remark): the GPRS and H.323 state already exists.
		v.acceptLU(env, entry)
		return
	case rowResident:
	default: // a chain owns the row, and the attach it holds refuses another
		v.rejectLU(env, entry, "gprs-attach")
		return
	}

	// Step 1.3a: GPRS attach, just like a GPRS MS. The chain (attach → PDP →
	// gatekeeper) runs through package-level completion callbacks that take
	// the VMSC and find the row again by its handle (regStep).
	entry.state = rowRegistering
	if err := v.client(entry).AttachArg(env, reg.IMSI, regAttachDone, v); err != nil {
		v.failRegistration(env, entry, "gprs-attach")
	}
}

// acceptLU answers the radio path with Location Update Accept (step 1.6).
func (v *VMSC) acceptLU(env *sim.Env, entry *msEntry) {
	env.Send(v.cfg.ID, v.bscOf(entry), gsm.LocationUpdateAccept{
		Leg: gsm.LegA, MS: entry.ms, TMSI: entry.tmsi,
	})
}

// failRegistration ends a registration at a failed stage: the row is resident
// again, holding what the chain got, and the MS hears the reject.
func (v *VMSC) failRegistration(env *sim.Env, entry *msEntry, stage string) {
	entry.state = rowResident
	v.rejectLU(env, entry, stage)
}

// rejectLU reports a failed stage and rejects toward the MS.
func (v *VMSC) rejectLU(env *sim.Env, entry *msEntry, stage string) {
	v.stats.RegisterFailers++
	if v.cfg.Hooks.OnMSRegisterFailed != nil {
		v.cfg.Hooks.OnMSRegisterFailed(entry.imsiKey.IMSI(), stage)
	}
	env.Send(v.cfg.ID, v.bscOf(entry), gsm.LocationUpdateReject{
		Leg: gsm.LegA, MS: entry.ms, Cause: 1,
	})
}

// regAttachDone continues the registration chain after GPRS attach.
func regAttachDone(env *sim.Env, arg any, owner slab.Handle, ok bool) {
	v := arg.(*VMSC)
	entry := v.regStep(env, owner, false)
	if entry == nil {
		return
	}
	if !ok {
		v.failRegistration(env, entry, "gprs-attach")
		return
	}
	// Step 1.3b: a low-priority PDP context dedicated to H.323 signalling.
	err := v.client(entry).ActivatePDPArg(env, NSAPISignalling, gtp.SignallingQoS(),
		v.staticAddrFor(entry), regSigPDPDone, v)
	if err != nil {
		v.failRegistration(env, entry, "pdp-activation")
	}
}

// regSigPDPDone continues the chain once the signalling context is up.
func regSigPDPDone(env *sim.Env, arg any, owner slab.Handle, addr netip.Addr, ok bool) {
	v := arg.(*VMSC)
	entry := v.regStep(env, owner, false)
	if entry == nil {
		return
	}
	if !ok {
		v.failRegistration(env, entry, "pdp-activation")
		return
	}
	entry.addr = addr
	if v.cfg.Dir != nil {
		v.cfg.Dir.Bind(addr, v.cfg.ID)
	}
	v.sendRRQ(env, entry, false)
}

// sendRRQ runs steps 1.4-1.5: RAS RRQ carrying the MS's MSISDN as alias and
// the PDP address as transport address; the RCF completes the MS table
// entry. A keep-alive RRQ only refreshes it.
func (v *VMSC) sendRRQ(env *sim.Env, entry *msEntry, keepAlive bool) {
	done := regRRQDone
	if keepAlive {
		done = rasKeepAliveDone
	}
	v.nextRAS++
	v.h225.SendRAS(env, entry.self, nil, h323.RRQ{
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(),
		SignalAddr: entry.addr, SignalPort: ipnet.PortQ931, KeepAlive: keepAlive,
	}, done)
}

// regRRQDone completes the registration when the gatekeeper answers (or the
// RAS transaction times out). Only an initial registration answers the radio
// path; a silent re-registration that fails leaves the row as it was.
func regRRQDone(env *sim.Env, r rasReq, msg sim.Message) {
	v := (*VMSC)(r.Host)
	_, confirmed := msg.(h323.RCF) // else RRJ or timeout
	entry := v.regStep(env, r.Owner, confirmed)
	if entry == nil {
		return
	}
	announce := entry.state == rowRegistering
	if !confirmed {
		if announce {
			v.failRegistration(env, entry, "gatekeeper-registration")
		} else {
			entry.state = rowRegistered
		}
		return
	}
	entry.state = rowRegistered
	v.stats.Registrations++
	if v.cfg.DeactivateIdlePDP {
		// The §6 ablation: drop the signalling context while idle
		// (TR 23.923-style resource saving).
		h := entry.self
		v.deactivateSignalling(env, entry, func() {
			if e := v.row(h); e != nil {
				v.finishRegistration(env, e, announce)
			}
		})
		return
	}
	v.finishRegistration(env, entry, announce)
}

func (v *VMSC) finishRegistration(env *sim.Env, entry *msEntry, announce bool) {
	if announce {
		v.acceptLU(env, entry)
	}
	if v.cfg.Hooks.OnMSRegistered != nil {
		v.cfg.Hooks.OnMSRegistered(entry.imsiKey.IMSI(), entry.addr)
	}
}

// deactivateSignalling takes the signalling context down; done fires at once
// if it is not up or already going.
func (v *VMSC) deactivateSignalling(env *sim.Env, entry *msEntry, done func()) {
	if err := v.client(entry).DeactivatePDP(env, NSAPISignalling, done); err != nil {
		done()
	}
}

// ensureSignallingPDP re-activates the signalling context in
// DeactivateIdlePDP mode before a call or a URQ can proceed.
func (v *VMSC) ensureSignallingPDP(env *sim.Env, entry *msEntry, done func(ok bool)) {
	if _, active := entry.gmm.Context(NSAPISignalling); active {
		done(true)
		return
	}
	err := v.client(entry).ActivatePDP(env, NSAPISignalling, gtp.SignallingQoS(),
		v.staticAddrFor(entry),
		func(addr netip.Addr, ok bool) {
			if ok {
				entry.addr = addr
			}
			done(ok)
		})
	if err != nil {
		done(false)
	}
}

// setMSISDN records the subscriber's directory number; the Registrar learns
// it from the VLR profile only indirectly, so the VMSC resolves it during
// call authorization — and topology builders may pre-provision it so the
// alias is available at registration time. Nothing looks a row up by it:
// MT calls arrive on the row's own PDP context.
func (v *VMSC) setMSISDN(entry *msEntry, msisdn gsmid.MSISDN) {
	if key := msisdn.Pack(); !key.IsZero() {
		entry.msisdnKey = key
	}
}

// ProvisionMSISDN tells the VMSC a subscriber's MSISDN ahead of
// registration. The paper's VMSC learns it from subscription data; here the
// topology builder provides it so the RRQ of step 1.4 can carry the alias.
func (v *VMSC) ProvisionMSISDN(imsi gsmid.IMSI, msisdn gsmid.MSISDN) {
	v.setMSISDN(v.getOrCreateEntry(imsi), msisdn)
}

// handleDL feeds downlink Gb traffic into the right virtual client.
// The MS name only correlates the Gb leg; the TLLI says whose frame it is.
func (v *VMSC) handleDL(env *sim.Env, dl gb.DLUnitdata) {
	entry := v.entryByMS(dl.MS)
	if entry != nil {
		if c := v.client(entry); c.TLLI() == dl.TLLI {
			_ = c.HandleDownlink(env, dl.PDU)
			return
		}
	}
	v.withdrawStrayAttach(env, entry, dl)
}

// withdrawStrayAttach drops a downlink frame no row waits for (a late answer
// for an MS name's previous subscriber), but detaches the TLLI of a stray
// AttachAccept: its row was freed mid-attach by a CancelLocation, and the SGSN
// would keep a subscriber nobody holds. A duplicate for the row on the name
// carries that row's own P-TMSI.
func (v *VMSC) withdrawStrayAttach(env *sim.Env, entry *msEntry, dl gb.DLUnitdata) {
	parsed, err := gprs.ParsePDU(dl.PDU)
	if err != nil {
		return
	}
	accept, ok := parsed.SM.(gprs.AttachAccept)
	if !ok || (entry != nil && v.client(entry).TLLI() == gsmid.LocalTLLI(accept.PTMSI)) {
		return
	}
	if pdu, err := gprs.WrapSM(gprs.DetachRequest{}); err == nil {
		env.Send(v.cfg.ID, v.cfg.SGSN, gb.ULUnitdata{TLLI: dl.TLLI, MS: dl.MS, Cell: v.cfg.Cell, PDU: pdu})
	}
}

// handleIMSIDetach deregisters a powering-off MS: the gatekeeper row is
// removed (URQ) and the GPRS contexts are detached — the reverse of the Fig
// 4 procedure. The detach indication itself is unacknowledged, so failures
// here only delay garbage collection. The row itself stays resident (a
// powered-off subscriber is still this VMSC's), ready for the next power-on.
func (v *VMSC) handleIMSIDetach(env *sim.Env, t gsm.IMSIDetach) {
	entry := v.entryByMS(t.MS)
	if entry == nil || !entry.registered() {
		return
	}
	v.leave(env, entry, rowDeregistering)
}

// handleCancelLocation purges a subscriber whose location update ran
// through another switch: the VLR relays the HLR's cancel so the old VMSC
// releases the gatekeeper alias and GPRS contexts it holds on the MS's
// behalf (paper §5), then frees the row, staling every handle minted for it.
// A row whose attach is in flight holds nothing yet and is freed at once; a
// registration further on is refused toward the MS and unwound.
func (v *VMSC) handleCancelLocation(env *sim.Env, from sim.NodeID, m sigmap.CancelLocation) {
	_, entry := v.byIMSI.Get(m.IMSI.Pack())
	switch {
	case entry == nil || entry.state == rowPurging:
	case entry.state == rowRegistering && !entry.gmm.Attached():
		v.freeEntry(entry)
	default:
		if entry.state == rowRegistering {
			v.rejectLU(env, entry, "location-cancelled")
		}
		v.leave(env, entry, rowPurging)
	}
}

// leave starts a subscriber's way out (to rowDeregistering or rowPurging):
// the call is aborted, and the unwinding starts unless a step in flight
// carries it on.
func (v *VMSC) leave(env *sim.Env, entry *msEntry, to rowState) {
	from := entry.state
	entry.state = to
	if entry.call != nil {
		v.clearCall(env, entry.call, false)
	}
	switch from {
	case rowRegistered:
		v.unwind(env, entry, true)
	case rowResident:
		v.unwind(env, entry, false)
	}
}

// unwind runs the reverse of the Fig 4 chain from where a leaving row
// stands: URQ if the gatekeeper holds the alias, GPRS detach, and then a
// purged row is freed and a detached one resident. Each step's completion
// calls unwind for the next.
func (v *VMSC) unwind(env *sim.Env, entry *msEntry, aliasUp bool) {
	switch {
	case aliasUp:
		v.unregisterGK(env, entry)
	case entry.gmm.Attached():
		h := entry.self
		_ = v.client(entry).Detach(env, func() {
			if e := v.ents.Get(h); e != nil {
				v.unwind(env, e, false)
			}
		})
	case entry.state == rowPurging:
		v.freeEntry(entry)
	case entry.state == rowDeregistering:
		entry.state = rowResident
	}
}

// unregisterGK sends the URQ, in DeactivateIdlePDP mode after bringing the
// signalling context back (or on to the detach if that fails).
func (v *VMSC) unregisterGK(env *sim.Env, entry *msEntry) {
	if _, active := entry.gmm.Context(NSAPISignalling); !active {
		h := entry.self
		v.ensureSignallingPDP(env, entry, func(ok bool) {
			if e := v.ents.Get(h); e != nil {
				v.unwind(env, e, ok)
			}
		})
		return
	}
	v.nextRAS++
	v.h225.SendRAS(env, entry.self, nil, h323.URQ{
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(), SignalAddr: entry.addr,
	}, rasURQDone)
}

// rasURQDone unwinds on after a UCF or a timeout alike.
func rasURQDone(env *sim.Env, r rasReq, _ sim.Message) {
	v := (*VMSC)(r.Host)
	if entry := v.ents.Get(r.Owner); entry != nil {
		v.unwind(env, entry, false)
	}
}

// StartKeepAlive begins periodic H.225 keepalive RRQs for every registered
// subscriber — required when the gatekeeper enforces a registration TTL.
// The VMSC refreshes on behalf of its MSs just as it registered on their
// behalf (paper step 1.4); an MS whose row lapsed anyway (answered with
// "full registration required") is re-registered with a full RRQ. Idle-PDP
// mode skips subscribers whose signalling context is down; their rows are
// refreshed when the per-call activation re-registers. Keepalives keep the
// event queue non-empty: drive the simulation with RunUntil once started.
func (v *VMSC) StartKeepAlive(env *sim.Env, interval time.Duration) {
	if interval <= 0 || v.keepAlive {
		return
	}
	v.keepAlive = true
	var tick func()
	tick = func() {
		// Row order, not index order: the RRQs of one tick leave in an
		// order no table capacity or hash has a say in.
		v.ents.Range(func(_ slab.Handle, entry *msEntry) bool {
			if _, active := entry.gmm.Context(NSAPISignalling); active && entry.registered() {
				v.sendRRQ(env, entry, true)
			}
			return true
		})
		env.After(interval, tick)
	}
	tick()
}

// rasKeepAliveDone handles the keepalive RRQ's answer: a gatekeeper that
// lost the row (TTL lapse, restart) demands a full registration, which the
// VMSC performs silently, once at a time.
func rasKeepAliveDone(env *sim.Env, r rasReq, msg sim.Message) {
	v := (*VMSC)(r.Host)
	entry := v.row(r.Owner)
	if rrj, isRRJ := msg.(h323.RRJ); isRRJ && rrj.Reason == h323.RejectFullRegistrationRequired &&
		entry != nil && entry.state == rowRegistered {
		entry.state = rowReregistering
		v.sendRRQ(env, entry, false)
	}
}
