package vmsc

import (
	"net/netip"
	"time"

	"vgprs/internal/gb"
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

	if entry.registered {
		// Re-registration (location update due to movement, paper §3
		// closing remark): the GPRS and H.323 state already exists.
		v.acceptLU(env, entry)
		return
	}

	// The chain below (attach → PDP → gatekeeper) runs through package-level
	// completion callbacks that take the VMSC and find the row again by its
	// handle: a row purged between two steps ends the chain.
	entry.regAnnounce = true

	// Step 1.3a: GPRS attach, just like a GPRS MS.
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

// failRegistration reports a failed stage and rejects toward the MS.
func (v *VMSC) failRegistration(env *sim.Env, entry *msEntry, stage string) {
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
	entry := v.ents.Get(owner)
	if entry == nil {
		return
	}
	if !ok {
		v.failRegistration(env, entry, "gprs-attach")
		return
	}
	v.activateSignallingPDP(env, entry)
}

// activateSignallingPDP runs step 1.3b: a low-priority PDP context dedicated
// to H.323 signalling.
func (v *VMSC) activateSignallingPDP(env *sim.Env, entry *msEntry) {
	err := v.client(entry).ActivatePDPArg(env, NSAPISignalling, gtp.SignallingQoS(),
		v.staticAddrFor(entry), regSigPDPDone, v)
	if err != nil {
		v.failRegistration(env, entry, "pdp-activation")
	}
}

// regSigPDPDone continues the chain once the signalling context is up.
func regSigPDPDone(env *sim.Env, arg any, owner slab.Handle, addr netip.Addr, ok bool) {
	v := arg.(*VMSC)
	entry := v.ents.Get(owner)
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
	v.registerWithGatekeeper(env, entry, true)
}

// registerWithGatekeeper runs steps 1.4-1.5: RAS RRQ carrying the MS's
// MSISDN as alias and the PDP address as transport address; the RCF
// completes the MS table entry. announce controls whether completion
// answers the radio path (initial registration) or stays silent (keepalive
// re-registration).
func (v *VMSC) registerWithGatekeeper(env *sim.Env, entry *msEntry, announce bool) {
	entry.regAnnounce = announce
	v.nextRAS++
	v.h225.SendRAS(env, entry.self, nil, h323.RRQ{
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(),
		SignalAddr: entry.addr, SignalPort: ipnet.PortQ931,
	}, regRRQDone)
}

// regRRQDone completes the registration when the gatekeeper answers (or the
// RAS transaction times out).
func regRRQDone(env *sim.Env, r rasReq, msg sim.Message) {
	v := (*VMSC)(r.Host)
	entry := v.ents.Get(r.Owner)
	if entry == nil {
		return // subscriber purged while the RRQ was in flight
	}
	if _, confirmed := msg.(h323.RCF); !confirmed { // RRJ or timeout
		if entry.regAnnounce {
			v.failRegistration(env, entry, "gatekeeper-registration")
		}
		return
	}
	entry.registered = true
	if !entry.msisdnKey.IsZero() {
		v.byMSISDN.Put(entry.msisdnKey, entry.self)
	}
	v.stats.Registrations++
	if v.cfg.DeactivateIdlePDP {
		// The §6 ablation: drop the signalling context while idle
		// (TR 23.923-style resource saving).
		v.deactivateSignalling(env, entry, func() {
			v.finishRegistration(env, entry)
		})
		return
	}
	v.finishRegistration(env, entry)
}

func (v *VMSC) finishRegistration(env *sim.Env, entry *msEntry) {
	if entry.regAnnounce {
		v.acceptLU(env, entry)
	}
	if v.cfg.Hooks.OnMSRegistered != nil {
		v.cfg.Hooks.OnMSRegistered(entry.imsiKey.IMSI(), entry.addr)
	}
}

func (v *VMSC) deactivateSignalling(env *sim.Env, entry *msEntry, done func()) {
	if _, active := entry.gmm.Context(NSAPISignalling); !active {
		done()
		return
	}
	if err := v.client(entry).DeactivatePDP(env, NSAPISignalling, done); err != nil {
		done()
	}
}

// ensureSignallingPDP re-activates the signalling context in
// DeactivateIdlePDP mode before a call can proceed.
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
// alias is available at registration time.
func (v *VMSC) setMSISDN(entry *msEntry, msisdn gsmid.MSISDN) {
	key := msisdn.Pack()
	if key.IsZero() || entry.msisdnKey == key {
		return
	}
	if !entry.msisdnKey.IsZero() {
		v.byMSISDN.Delete(entry.msisdnKey)
	}
	entry.msisdnKey = key
	v.byMSISDN.Put(key, entry.self)
}

// ProvisionMSISDN tells the VMSC a subscriber's MSISDN ahead of
// registration. The paper's VMSC learns it from subscription data; here the
// topology builder provides it so the RRQ of step 1.4 can carry the alias.
func (v *VMSC) ProvisionMSISDN(imsi gsmid.IMSI, msisdn gsmid.MSISDN) {
	v.setMSISDN(v.getOrCreateEntry(imsi), msisdn)
}

// handleDL feeds downlink Gb traffic into the right virtual client.
func (v *VMSC) handleDL(env *sim.Env, dl gb.DLUnitdata) {
	entry := v.entryByMS(dl.MS)
	if entry == nil {
		return
	}
	// The MS name only correlates the Gb leg; the TLLI says whose frame it
	// is. A late answer to the name's previous subscriber stops here.
	if c := v.client(entry); c.TLLI() == dl.TLLI {
		_ = c.HandleDownlink(env, dl.PDU)
	}
}

// handleIMSIDetach deregisters a powering-off MS: the gatekeeper row is
// removed (URQ), the GPRS contexts are detached, and the MS table entry is
// marked unregistered — the reverse of the Fig 4 procedure. The detach
// indication itself is unacknowledged, so failures here only delay garbage
// collection. The row itself stays resident (a powered-off subscriber is
// still this VMSC's), ready for the next power-on.
func (v *VMSC) handleIMSIDetach(env *sim.Env, t gsm.IMSIDetach) {
	entry := v.entryByMS(t.MS)
	if entry == nil || !entry.registered {
		return
	}
	v.deregister(env, entry)
}

// handleCancelLocation deregisters a subscriber whose location update ran
// through another switch: the VLR relays the HLR's cancel so the old VMSC
// releases the gatekeeper alias and GPRS contexts it holds on the MS's
// behalf (paper §5 — the VMSC cleans up when the MS leaves its area). The
// row is purged outright: once the deregistration chain completes, the slab
// slot is freed and every handle minted for it goes stale.
func (v *VMSC) handleCancelLocation(env *sim.Env, from sim.NodeID, m sigmap.CancelLocation) {
	entry := v.entryByIMSI(m.IMSI)
	if entry == nil {
		return
	}
	entry.purge = true
	if entry.registered {
		v.deregister(env, entry) // frees the row when the chain completes
		return
	}
	if entry.call == nil && !entry.gmm.Attached() {
		v.freeEntry(entry) // with the attach it may have in flight
	}
	// Otherwise an in-flight detach chain observes purge and frees the row
	// on completion.
}

// deregister tears down a subscriber's vGPRS service: any call in progress,
// the gatekeeper alias (URQ), and the GPRS attachment — the reverse of the
// Fig 4 chain.
func (v *VMSC) deregister(env *sim.Env, entry *msEntry) {
	entry.registered = false
	if !entry.msisdnKey.IsZero() {
		v.byMSISDN.Delete(entry.msisdnKey)
	}

	// Abort any call in progress.
	if entry.call != nil {
		v.clearCall(env, entry.call, false)
	}

	// Unregister the alias at the gatekeeper. The context may already be
	// torn down in DeactivateIdlePDP mode; re-activate transiently if so.
	if _, active := entry.gmm.Context(NSAPISignalling); active {
		v.unregisterGK(env, entry)
		return
	}
	v.ensureSignallingPDP(env, entry, func(ok bool) {
		if ok {
			v.unregisterGK(env, entry)
		}
	})
}

// unregisterGK sends the URQ whose completion detaches the GPRS side (and,
// for purged rows, frees the slab slot).
func (v *VMSC) unregisterGK(env *sim.Env, entry *msEntry) {
	v.nextRAS++
	v.h225.SendRAS(env, entry.self, nil, h323.URQ{
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(), SignalAddr: entry.addr,
	}, rasURQDone)
}

// rasURQDone finishes a deregistration: whether the gatekeeper confirmed
// (UCF) or the transaction timed out, the GPRS attachment is released, and
// a purged row is freed once the detach completes.
func rasURQDone(env *sim.Env, r rasReq, _ sim.Message) {
	v := (*VMSC)(r.Host)
	entry := v.ents.Get(r.Owner)
	if entry == nil {
		return
	}
	if entry.gmm.Attached() {
		h := r.Owner
		_ = v.client(entry).Detach(env, func() {
			if e := v.ents.Get(h); e != nil && e.purge {
				v.freeEntry(e)
			}
		})
		return
	}
	if entry.purge {
		v.freeEntry(entry)
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
			if !entry.registered {
				return true
			}
			if _, active := entry.gmm.Context(NSAPISignalling); !active {
				return true
			}
			v.nextRAS++
			v.h225.SendRAS(env, entry.self, nil, h323.RRQ{
				Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(),
				SignalAddr: entry.addr, SignalPort: ipnet.PortQ931,
				KeepAlive: true,
			}, rasKeepAliveDone)
			return true
		})
		env.After(interval, tick)
	}
	tick()
}

// rasKeepAliveDone handles the keepalive RRQ's answer: a gatekeeper that
// lost the row (TTL lapse, restart) demands a full registration, which the
// VMSC performs silently.
func rasKeepAliveDone(env *sim.Env, r rasReq, msg sim.Message) {
	v := (*VMSC)(r.Host)
	entry := v.ents.Get(r.Owner)
	if entry == nil {
		return
	}
	if rrj, isRRJ := msg.(h323.RRJ); isRRJ && rrj.Reason == h323.RejectFullRegistrationRequired {
		v.registerWithGatekeeper(env, entry, false)
	}
}
