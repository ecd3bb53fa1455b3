package vmsc

import (
	"net/netip"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gb"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

// Receive implements sim.Node: the VMSC's five faces (A interface, MAP,
// Gb, ISUP E-trunks, and — through the Gb tunnel — H.225/RAS/RTP).
func (v *VMSC) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	if v.registrar.Handle(env, from, msg) {
		return
	}
	switch t := msg.(type) {
	case gb.DLUnitdata:
		v.handleDL(env, t)
	case *gb.DLUnitdata:
		// The SGSN's voice fast path sends its reusable downlink message
		// by pointer to avoid the interface-boxing allocation.
		v.handleDL(env, *t)
	case gsm.Setup:
		v.handleMOSetup(env, from, t)
	case gsm.PagingResponse:
		v.pagingResponse(env, t)
	case gsm.Alerting:
		v.radioAlerting(env, t)
	case gsm.Connect:
		v.radioConnect(env, t)
	case gsm.Disconnect:
		v.radioDisconnect(env, t)
	case gsm.ReleaseComplete:
		// Radio channel freed at the BSC; nothing more to do.
	case gsm.IMSIDetach:
		v.handleIMSIDetach(env, t)
	case sigmap.CancelLocation:
		v.handleCancelLocation(env, from, t)
	case gsm.TCHFrame:
		v.uplinkVoice(env, t)
	case gsm.HandoverRequired:
		v.handoverRequired(env, t)
	case sigmap.PrepareSubsequentHandover:
		// This VMSC anchors a call whose relay MSC wants the MS moved on.
		v.subsequentHandover(env, from, t)
	case sigmap.PrepareSubsequentHandoverAck:
		// This VMSC is the relay of a handed-in MS (VMSC-to-VMSC case).
		v.hoTarget.SubsequentAck(env, t)
	case gsm.HandoverAccess:
		// First burst on the target cell; wait for HandoverComplete.
	case gsm.HandoverComplete:
		// A handback onto this VMSC's own system first; otherwise this
		// VMSC is a handover target for another anchor.
		if !v.handoverComplete(env, from, t) {
			v.hoTarget.Complete(env, from, t)
		}
	case sigmap.PrepareHandover:
		// This VMSC is the handover TARGET (VMSC-to-VMSC handoff).
		v.hoTarget.Prepare(env, from, t)
	case sigmap.SendEndSignalAck:
		// The anchor acknowledged our end signal; nothing further.
	case isup.IAM:
		// Only handover trunks terminate at a VMSC.
		v.hoTarget.TrunkArrived(env, from, t)
	case sigmap.SendInfoForOutgoingCallAck:
		v.dm.Resolve(t.Invoke, t)
	case sigmap.PrepareHandoverAck:
		v.dm.Resolve(t.Invoke, t)
	case sigmap.SendEndSignal:
		v.sendEndSignal(env, from, t)
	case isup.ACM, isup.RLC:
		// Trunk progress on the handover leg needs no action.
	case isup.ANM:
		// Handover trunk answered; the HandoverCommand was already sent.
	case isup.REL:
		v.trunkREL(env, from, t)
	case isup.TrunkFrame:
		v.trunkVoice(env, t)
	}
}

// handleIP dispatches IP packets arriving through an MS's PDP contexts.
func (v *VMSC) handleIP(env *sim.Env, entry *msEntry, pkt ipnet.Packet) {
	if !entry.addr.IsValid() {
		return // no signalling context has come up yet
	}
	in, ok := h323.Classify(pkt)
	if !ok {
		return
	}
	switch {
	case in.RAS != nil:
		v.handleRAS(env, in.RAS)
	case in.Q931 != nil:
		v.handleQ931(env, entry, pkt, in.Q931)
	case in.RTPPayload != nil:
		v.downlinkVoice(env, entry, in.RTPPayload)
	}
}

func (v *VMSC) handleRAS(env *sim.Env, msg sim.Message) {
	var seq uint32
	switch m := msg.(type) {
	case h323.RCF:
		seq = m.Seq
	case h323.RRJ:
		seq = m.Seq
	case h323.ACF:
		seq = m.Seq
	case h323.ARJ:
		seq = m.Seq
	case h323.DCF:
		seq = m.Seq
	case h323.UCF:
		seq = m.Seq
	default:
		return
	}
	if p, ok := v.ras.Take(seq); ok {
		p.fn(env, p, msg)
	}
}

// rasTxn is one outstanding RAS transaction: a package-level completion
// function plus the transaction's subject — the MS-table row by generational
// handle and, for admissions, the call — and the request retained for
// retransmission.
type rasTxn struct {
	v      *VMSC
	fn     func(env *sim.Env, p rasTxn, msg sim.Message)
	entryH slab.Handle
	call   *vCall
	msg    sim.Message
}

// h323Policy is the RAS and Q.931 retransmission schedule.
func (v *VMSC) h323Policy() txn.Policy {
	return txn.Policy{RTO: v.cfg.SigRTO, Retries: v.cfg.H323Retries}
}

// rasTransmit registers fn as the completion for the RAS transaction with
// sequence seq and sends the request through the MS's signalling context.
// call, if non-nil, is the admission's call; fn reads the subject back off
// the record (p.entryH, p.call). An unanswered transaction is retried per
// the SigRTO/H323Retries schedule and then fails with a nil message —
// callers treat that as failure, so a dead gatekeeper (or severed tunnel)
// fails procedures instead of wedging them.
func (v *VMSC) rasTransmit(env *sim.Env, entry *msEntry, seq uint32, msg sim.Message,
	fn func(env *sim.Env, p rasTxn, msg sim.Message), call *vCall) {
	*v.ras.Begin(env, seq, v.h323Policy()) = rasTxn{v: v, fn: fn, entryH: entry.self, call: call, msg: msg}
	v.endpoint(entry).SendRAS(env, v.cfg.Gatekeeper, msg)
}

// rasResend retransmits a RAS request while its subscriber row is live; a
// purged subscriber fails the transaction at once.
func (v *VMSC) rasResend(env *sim.Env, p *rasTxn) bool {
	entry := v.ents.Get(p.entryH)
	if entry == nil {
		return false
	}
	v.endpoint(entry).SendRAS(env, v.cfg.Gatekeeper, p.msg)
	return true
}

func rasExpired(env *sim.Env, p *rasTxn) { p.fn(env, *p, nil) }

// --- Q.931 retransmission (T303 for Setup, T313 for Connect) ---

// q931Txn is a call's running Q.931 retransmission cycle.
type q931Txn struct {
	call *vCall
	msg  sim.Message
}

// armQ931 sends a Q.931 message that expects an answer and starts its
// retransmission cycle: re-sent on the H.323 schedule until an answer stops
// the cycle (stopQ931) or the budget runs out, which tears the call down.
func (v *VMSC) armQ931(env *sim.Env, call *vCall, msg sim.Message) {
	entry := call.ent()
	if entry == nil {
		return
	}
	v.endpoint(entry).SendQ931(env, call.remoteSig, msg)
	v.stopQ931(call) // a new cycle supersedes one still running
	*v.q931.Begin(env, call, v.h323Policy()) = q931Txn{call: call, msg: msg}
}

// stopQ931 ends the call's current retransmission cycle (answer arrived).
func (v *VMSC) stopQ931(call *vCall) { v.q931.Take(call) }

func (v *VMSC) q931Resend(env *sim.Env, t *q931Txn) bool {
	entry := t.call.ent()
	if entry == nil {
		return false
	}
	v.endpoint(entry).SendQ931(env, t.call.remoteSig, t.msg)
	return true
}

// q931Expired clears the call everywhere rather than hang once the budget
// is exhausted (or the subscriber was purged).
func (v *VMSC) q931Expired(env *sim.Env, t *q931Txn) { v.clearCall(env, t.call, true) }

// --- Mobile-originated calls (Fig 5, steps 2.1-2.9) ---

func (v *VMSC) handleMOSetup(env *sim.Env, bsc sim.NodeID, t gsm.Setup) {
	entry := v.entryByMS(t.MS)
	if entry == nil || !entry.registered || entry.call != nil {
		env.Send(v.cfg.ID, bsc, gsm.Release{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		return
	}
	v.nextRAS++ // Q.931 references share the VMSC-wide sequence space
	call := &vCall{
		v: v, entryH: entry.self, env: env, ref: uint16(v.nextRAS), radioRef: t.CallRef,
		state: callRouting, mobileOriginated: true, remote: t.Called,
	}
	entry.call = call
	v.active++

	// Step 2.2: ask the VLR whether the call is allowed, then check the
	// routing path to the GGSN (the PDP context record — already active
	// in vGPRS, which is the point of the §6 comparison). The invoke is
	// retransmitted on loss per the SigRTO schedule.
	invoke := v.dm.InvokeRetryArg(moSIFOCDone, call)
	v.dm.Transmit(env, invoke, v.cfg.VLR, sigmap.SendInfoForOutgoingCall{
		Invoke: invoke, Identity: gsmid.ByTMSI(entry.tmsi), Called: t.Called,
	}, v.cfg.SigRTO, v.cfg.SigRetries)
}

// moSIFOCDone continues an MO call after the VLR authorises it (or the
// retried dialogue finally fails).
func moSIFOCDone(arg any, resp sim.Message, ok bool) {
	call := arg.(*vCall)
	v, env := call.v, call.env
	entry := call.ent()
	if entry == nil {
		v.forget(call)
		return
	}
	ack, isAck := resp.(sigmap.SendInfoForOutgoingCallAck)
	if !ok || !isAck || ack.Cause != sigmap.CauseNone {
		v.clearCall(env, call, true)
		return
	}
	v.setMSISDN(entry, ack.MSISDN)
	v.ensureSignallingPDP(env, entry, func(ok bool) {
		if !ok {
			v.clearCall(env, call, true)
			return
		}
		v.admitMOCall(env, call, call.remote)
	})
}

// admitMOCall runs step 2.3: the ARQ/ACF exchange that yields the
// destination's call signalling channel transport address.
func (v *VMSC) admitMOCall(env *sim.Env, call *vCall, called gsmid.MSISDN) {
	entry := call.ent()
	if entry == nil {
		v.forget(call)
		return
	}
	v.nextRAS++
	seq := v.nextRAS
	v.rasTransmit(env, entry, seq, h323.ARQ{
		Seq: seq, CallerAlias: entry.msisdnKey.MSISDN(), CalledAlias: called, CallRef: call.ref,
	}, rasMOAdmitDone, call)
}

// rasMOAdmitDone continues an MO call once the gatekeeper admits it (ACF
// carrying the destination's signalling address) or rejects/times out.
func rasMOAdmitDone(env *sim.Env, p rasTxn, msg sim.Message) {
	v, call := p.v, p.call
	if call == nil || call.released {
		return
	}
	m, admitted := msg.(h323.ACF)
	if !admitted { // ARJ or timeout
		v.clearCall(env, call, true)
		return
	}
	entry := call.ent()
	if entry == nil {
		v.forget(call)
		return
	}
	call.remoteSig = m.SignalAddr
	call.state = callDelivering
	// Step 2.4: Q.931 Setup through the GGSN to the terminal,
	// retransmitted (T303) until the far end acknowledges.
	v.armQ931(env, call, q931.Setup{
		CallRef: call.ref, Called: call.remote, Calling: entry.msisdnKey.MSISDN(),
		Media: q931.MediaAddr{Addr: entry.addr, Port: ipnet.PortRTP},
	})
}

func (v *VMSC) handleQ931(env *sim.Env, entry *msEntry, pkt ipnet.Packet, msg sim.Message) {
	switch m := msg.(type) {
	case q931.Setup:
		v.handleMTSetup(env, entry, pkt, m)
	case q931.CallProceeding:
		// Step 2.4 tail: no more routing information expected — the far
		// end holds our Setup, so its retransmission cycle can stop.
		if call := entry.call; call != nil && call.ref == m.CallRef && call.mobileOriginated {
			v.stopQ931(call)
		}
	case q931.Alerting:
		// Step 2.7: relay the alerting indication down the radio path to
		// trigger ringback at the MS. A late duplicate must not regress
		// an answered call, hence the state guard.
		if call := entry.call; call != nil && call.ref == m.CallRef &&
			call.mobileOriginated && call.state == callDelivering {
			v.stopQ931(call)
			call.state = callAlerting
			env.Send(v.cfg.ID, v.bscOf(entry), gsm.Alerting{
				Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
			})
		}
	case q931.Connect:
		// Step 2.8 + 2.9: answer reaches the MS; then activate the
		// real-time voice PDP context. Every copy is acknowledged (the
		// answerer retransmits Connect until it sees the ack); only the
		// first is processed.
		if call := entry.call; call != nil && call.ref == m.CallRef && call.mobileOriginated {
			v.endpoint(entry).SendQ931(env, call.remoteSig, q931.ConnectAck{CallRef: m.CallRef})
			if call.answered {
				return
			}
			call.answered = true
			v.stopQ931(call)
			call.remoteMed = m.Media
			env.Send(v.cfg.ID, v.bscOf(entry), gsm.Connect{
				Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
			})
			v.activateVoicePDP(env, call)
		}
	case q931.ConnectAck:
		// The far end saw our Connect (MT answer): stop T313.
		if call := entry.call; call != nil && call.ref == m.CallRef {
			v.stopQ931(call)
		}
	case q931.ReleaseComplete:
		// Far party cleared (or step 3.2's mirror for MT calls).
		if call := entry.call; call != nil && call.ref == m.CallRef {
			v.disengage(env, call)
			v.releaseRadio(env, call)
			v.teardownVoicePDP(env, entry)
			v.forget(call)
		}
	}
}

// handleMTSetup runs Fig 6 steps 4.2-4.5: the Setup arrived through the
// GGSN on the MS's signalling PDP context.
func (v *VMSC) handleMTSetup(env *sim.Env, entry *msEntry, pkt ipnet.Packet, m q931.Setup) {
	if entry.call != nil {
		if entry.call.ref == m.CallRef && entry.call.remoteSig == pkt.Src {
			// A retransmitted Setup for the call already in progress:
			// re-acknowledge so the caller's T303 stops; killing the
			// call with UserBusy here would fail every MT call whose
			// first CallProceeding was lost.
			v.endpoint(entry).SendQ931(env, pkt.Src, q931.CallProceeding{CallRef: m.CallRef})
			return
		}
		v.endpoint(entry).SendQ931(env, pkt.Src, q931.ReleaseComplete{
			CallRef: m.CallRef, Cause: q931.CauseUserBusy,
		})
		return
	}
	call := &vCall{
		v: v, entryH: entry.self, env: env, ref: m.CallRef, radioRef: uint32(m.CallRef),
		state: callPaging, remote: m.Calling, remoteSig: pkt.Src, remoteMed: m.Media,
	}
	entry.call = call
	v.active++

	// Step 4.2 tail: Call Proceeding back to the caller.
	v.endpoint(entry).SendQ931(env, pkt.Src, q931.CallProceeding{CallRef: m.CallRef})

	// Step 4.3: ARQ/ACF with the gatekeeper.
	v.nextRAS++
	seq := v.nextRAS
	v.rasTransmit(env, entry, seq, h323.ARQ{
		Seq: seq, CallerAlias: entry.msisdnKey.MSISDN(), CalledAlias: m.Calling,
		CallRef: m.CallRef, Answer: true,
	}, rasMTAdmitDone, call)
}

// rasMTAdmitDone pages the MS once the gatekeeper admits the terminating
// call; rejection (or timeout) releases the caller.
func rasMTAdmitDone(env *sim.Env, p rasTxn, msg sim.Message) {
	v, call := p.v, p.call
	if call == nil || call.released {
		return
	}
	entry := call.ent()
	if entry == nil {
		v.forget(call)
		return
	}
	if _, admitted := msg.(h323.ACF); !admitted { // ARJ or timeout
		v.endpoint(entry).SendQ931(env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.ref, Cause: q931.CauseResourcesUnavail,
		})
		v.forget(call)
		return
	}
	// Step 4.4: page the MS. The timeout references the call directly
	// (paging state holds the subscriber only through call.entryH); the
	// paging response, or whatever releases the call first, cancels it.
	env.Send(v.cfg.ID, v.bscOf(entry), gsm.Paging{
		Leg: gsm.LegA, MS: entry.ms, Identity: gsmid.ByTMSI(entry.tmsi),
	})
	call.paging = call.env.AfterArg(v.cfg.PagingTimeout, pagingExpire, call)
}

// pagingExpire releases an MT call whose page went unanswered.
func pagingExpire(arg any) {
	call := arg.(*vCall)
	if call.released || call.state != callPaging {
		return
	}
	v := call.v
	if entry := call.ent(); entry != nil {
		v.endpoint(entry).SendQ931(call.env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.ref, Cause: q931.CauseNoAnswer,
		})
	}
	v.disengage(call.env, call)
	v.forget(call)
}

func (v *VMSC) pagingResponse(env *sim.Env, t gsm.PagingResponse) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil || entry.call.state != callPaging {
		// Orphan paging response (the caller gave up, or the page raced
		// the paging timer): release the channel the MS acquired to
		// answer, or it would sit allocated forever.
		if entry != nil {
			env.Send(v.cfg.ID, v.bscOf(entry), gsm.Release{Leg: gsm.LegA, MS: t.MS})
		}
		return
	}
	call := entry.call
	call.state = callDelivering
	call.env.Cancel(call.paging)
	// Step 4.5: Setup down the radio path.
	env.Send(v.cfg.ID, v.bscOf(entry), gsm.Setup{
		Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
	})
}

func (v *VMSC) radioAlerting(env *sim.Env, t gsm.Alerting) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil || entry.call.mobileOriginated {
		return
	}
	call := entry.call
	call.state = callAlerting
	// Step 4.6: Q.931 Alerting toward the calling terminal (ringback).
	v.endpoint(entry).SendQ931(env, call.remoteSig, q931.Alerting{CallRef: call.ref})
}

func (v *VMSC) radioConnect(env *sim.Env, t gsm.Connect) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil || entry.call.mobileOriginated {
		return
	}
	call := entry.call
	// Step 4.7: Connect toward the caller, with the MS's media address,
	// retransmitted (T313) until the caller's ConnectAck.
	v.armQ931(env, call, q931.Connect{
		CallRef: call.ref,
		Media:   q931.MediaAddr{Addr: entry.addr, Port: ipnet.PortRTP},
	})
	// Step 4.8: activate the voice PDP context.
	v.activateVoicePDP(env, call)
}

// activateVoicePDP runs step 2.9/4.8: a second, real-time PDP context for
// the voice packets. The call is active once it completes.
func (v *VMSC) activateVoicePDP(env *sim.Env, call *vCall) {
	entry := call.ent()
	if entry == nil {
		v.forget(call)
		return
	}
	establish := func() {
		call.state = callActive
		entry.voiceUp = true
		v.stats.CallsEstablished++
		if v.cfg.Hooks.OnCallEstablished != nil {
			v.cfg.Hooks.OnCallEstablished(entry.imsiKey.IMSI(), call.mobileOriginated)
		}
	}
	if _, active := entry.gmm.Context(NSAPIVoice); active {
		establish()
		return
	}
	err := v.client(entry).ActivatePDP(env, NSAPIVoice, gtp.VoiceQoS(), "",
		func(_ netip.Addr, ok bool) {
			if !ok {
				v.clearCall(env, call, true)
				return
			}
			establish()
		})
	if err != nil {
		v.clearCall(env, call, true)
	}
}

// --- Release (Fig 5, steps 3.1-3.4) ---

func (v *VMSC) radioDisconnect(env *sim.Env, t gsm.Disconnect) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil {
		// Possibly a handed-in MS hanging up on this target system.
		v.hoTarget.RadioDisconnect(env, t)
		return
	}
	call := entry.call
	// Step 3.2: release the H.323 leg.
	v.endpoint(entry).SendQ931(env, call.remoteSig, q931.ReleaseComplete{
		CallRef: call.ref, Cause: q931.CauseNormal,
	})
	// Step 3.3: disengage with the gatekeeper (charging stops).
	v.disengage(env, call)
	// Radio leg clearing toward the MS.
	v.releaseRadio(env, call)
	// Step 3.4: deactivate the voice PDP context.
	v.teardownVoicePDP(env, entry)
	v.forget(call)
}

// disengage sends the DRQ fire-and-forget (charging stop, no answer
// awaited).
func (v *VMSC) disengage(env *sim.Env, call *vCall) {
	entry := call.ent()
	if entry == nil {
		return
	}
	v.nextRAS++
	v.endpoint(entry).SendRAS(env, v.cfg.Gatekeeper, h323.DRQ{
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(), CallRef: call.ref,
		Peer: call.remote,
	})
}

func (v *VMSC) releaseRadio(env *sim.Env, call *vCall) {
	if call.hoActive {
		// After inter-system handover the radio leg lives at the target
		// MSC; release it over the trunk instead.
		env.Send(v.cfg.ID, call.hoPeer, isup.REL{
			CIC: call.hoCIC, CallRef: call.hoRef, Cause: isup.CauseNormalClearing,
		})
		if call.hoTrunks != nil {
			call.hoTrunks.Release(call.hoCIC)
		}
		return
	}
	entry := call.ent()
	if entry == nil {
		return
	}
	env.Send(v.cfg.ID, v.bscOf(entry), gsm.Release{
		Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
	})
}

// teardownVoicePDP deactivates the voice context and, in DeactivateIdlePDP
// mode, the signalling context too.
func (v *VMSC) teardownVoicePDP(env *sim.Env, entry *msEntry) {
	entry.voiceUp = false
	if _, active := entry.gmm.Context(NSAPIVoice); active {
		_ = v.client(entry).DeactivatePDP(env, NSAPIVoice, func() {
			if v.cfg.DeactivateIdlePDP {
				v.deactivateSignalling(env, entry, func() {})
			}
		})
		return
	}
	if v.cfg.DeactivateIdlePDP {
		v.deactivateSignalling(env, entry, func() {})
	}
}

// clearCall aborts a failed call attempt, clearing the radio side and — if
// call signalling already reached the far end — the H.323 leg too.
func (v *VMSC) clearCall(env *sim.Env, call *vCall, radio bool) {
	if radio {
		v.releaseRadio(env, call)
	}
	entry := call.ent()
	if call.remoteSig.IsValid() && entry != nil {
		v.endpoint(entry).SendQ931(env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.ref, Cause: q931.CauseResourcesUnavail,
		})
		v.disengage(env, call)
	}
	if entry != nil {
		v.teardownVoicePDP(env, entry)
	}
	v.forget(call)
}

func (v *VMSC) forget(call *vCall) {
	if call.released {
		return
	}
	call.released = true
	v.stopQ931(call) // a live retry timer must not resurrect the call
	call.env.Cancel(call.paging)
	v.stats.CallsReleased++
	entry := call.ent()
	if v.cfg.Hooks.OnCallReleased != nil && entry != nil {
		v.cfg.Hooks.OnCallReleased(entry.imsiKey.IMSI())
	}
	if entry != nil && entry.call == call {
		entry.call = nil
	}
	if call.hoRef != 0 {
		delete(v.hoCalls, call.hoRef)
	}
	v.active--
}

// --- Media plane: vocoder + PCU (paper §2: "at the VMSC, the voice
// information is translated into GPRS packets through vocoder and packet
// control unit") ---

// callMedia is the per-call reusable media-plane state. The talk path is a
// pipeline with a 20 ms beat: each stage owns one buffer that it overwrites
// once per frame interval, and every downstream consumer either copies the
// bytes at arrival or finishes with them well inside the interval — so no
// per-frame allocation and no free step are needed. upBuf/dnFrame hold the
// transcoded frame while the vocoder delay elapses; rtpBuf holds the
// marshalled RTP packet whose bytes the SGSN/GGSN relay legs alias until
// the far SGSN copies them (~4 ms + chaos jitter later); llcBuf and ulMsg
// are the LLC framing buffer and Gb message every uplink RTP packet of the
// call reuses, aliased the same way (total retention is the Gb+Gn+Gn latency,
// well inside one frame interval; see chaos.MediaChaosPlan's jitter cap).
// upJob/dnJob are the pre-bound timer records that make the vocoder delay
// closure-free.
type callMedia struct {
	upBuf   [codec.FrameBytes]byte
	upLen   int
	rtpBuf  []byte
	llcBuf  []byte
	ulMsg   gb.ULUnitdata
	dnFrame [codec.FrameBytes]byte
	dnLen   int
	upJob   frameJob
	dnJob   frameJob
	// rx is the RFC 3550 receiver accounting for the RTP stream the far
	// party sends to this call's endpoint: sequence-gap loss on the core
	// legs, reordering, and interarrival jitter.
	rx rtp.Receiver
}

// frameJob is the AfterArg record for one direction of a call's vocoder
// stage; the call's env carries the timer back into the simulation.
type frameJob struct {
	v    *VMSC
	call *vCall
}

func (v *VMSC) uplinkVoice(env *sim.Env, t gsm.TCHFrame) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil {
		// Possibly a handed-in MS anchored at another (V)MSC.
		v.hoTarget.UplinkVoice(env, t)
		return
	}
	call := entry.call
	if call.state != callActive || !call.remoteMed.Valid() {
		v.stats.FramesClipped++
		return
	}
	v.stats.FramesUplink++
	// Transcode at arrival: the radio-leg payload may be the MS's reused
	// frame buffer, so the copy cannot wait out the vocoder delay.
	call.med.upLen = codec.TranscodeInto(call.med.upBuf[:], t.Payload)
	if call.med.upJob.call == nil {
		call.med.upJob = frameJob{v: v, call: call}
	}
	// The vocoder charges its processing delay before the packet leaves.
	v.frameJobs++
	env.AfterArg(v.transcodeCost(), uplinkFire, &call.med.upJob)
}

// uplinkFire sends the transcoded uplink frame as RTP once the vocoder
// delay has elapsed. Only one job per direction is ever in flight (the
// vocoder delay is far shorter than the frame interval), so reusing the
// call's buffers here is safe.
func uplinkFire(arg any) {
	j := arg.(*frameJob)
	j.v.frameJobs--
	call := j.call
	if call.released || call.state != callActive || !call.remoteMed.Valid() {
		return
	}
	entry := call.ent()
	if entry == nil {
		return
	}
	env := call.env
	call.rtpSeq++
	p := rtp.Packet{
		PayloadType: rtp.PayloadTypeGSM,
		Seq:         call.rtpSeq,
		Timestamp:   rtp.TimestampAt(env.Now()),
		SSRC:        uint32(call.ref),
		Payload:     call.med.upBuf[:call.med.upLen],
	}
	call.med.rtpBuf = p.AppendTo(call.med.rtpBuf[:0])
	j.v.endpoint(entry).SendRTP(env, call.remoteMed, call.med.rtpBuf)
}

func (v *VMSC) downlinkVoice(env *sim.Env, entry *msEntry, payload []byte) {
	call := entry.call
	if call == nil {
		return
	}
	p, err := rtp.UnmarshalView(payload)
	if err != nil {
		return
	}
	v.stats.FramesDownlink++
	call.med.rx.Receive(p, env.Now(), 0, false)
	// Copy at arrival: the RTP payload aliases the relay pipeline's
	// reusable buffers, which the next frame overwrites.
	call.med.dnLen = codec.TranscodeInto(call.med.dnFrame[:], p.Payload)
	if call.med.dnJob.call == nil {
		call.med.dnJob = frameJob{v: v, call: call}
	}
	v.frameJobs++
	env.AfterArg(v.transcodeCost(), downlinkFire, &call.med.dnJob)
}

// downlinkFire forwards the transcoded downlink frame onto the radio leg
// (or the post-handover E trunk) once the vocoder delay has elapsed.
func downlinkFire(arg any) {
	j := arg.(*frameJob)
	j.v.frameJobs--
	call := j.call
	if call.released {
		return
	}
	env := call.env
	call.seqDown++
	if call.hoActive {
		// Post-handover: the radio leg is behind the E trunk.
		call.hoSeq++
		env.Send(j.v.cfg.ID, call.hoPeer, isup.TrunkFrame{
			CIC: call.hoCIC, CallRef: call.hoRef, Seq: call.hoSeq,
			Payload: call.med.dnFrame[:call.med.dnLen],
		})
		return
	}
	entry := call.ent()
	if entry == nil {
		return
	}
	env.Send(j.v.cfg.ID, j.v.bscOf(entry), gsm.TCHFrame{
		Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
		Seq: call.seqDown, Downlink: true, Payload: call.med.dnFrame[:call.med.dnLen],
	})
}

// trunkVoice carries uplink speech arriving from a handover target MSC (as
// anchor) or anchor speech for a handed-in MS (as target).
func (v *VMSC) trunkVoice(env *sim.Env, t isup.TrunkFrame) {
	call := v.hoCalls[t.CallRef]
	if call == nil {
		v.hoTarget.TrunkVoice(env, t)
		return
	}
	if !call.hoActive || call.state != callActive || !call.remoteMed.Valid() {
		return
	}
	v.stats.FramesUplink++
	payload := codec.Transcode(t.Payload)
	env.After(v.transcodeCost(), func() {
		entry := call.ent()
		if entry == nil {
			return
		}
		call.rtpSeq++
		p := rtp.Packet{
			PayloadType: rtp.PayloadTypeGSM,
			Seq:         call.rtpSeq,
			Timestamp:   rtp.TimestampAt(env.Now()),
			SSRC:        uint32(call.ref),
			Payload:     payload,
		}
		v.endpoint(entry).SendRTP(env, call.remoteMed, p.Marshal())
	})
}

// trunkREL handles release of the handover trunk from the target side (the
// handed-over MS hung up).
func (v *VMSC) trunkREL(env *sim.Env, from sim.NodeID, t isup.REL) {
	env.Send(v.cfg.ID, from, isup.RLC{CIC: t.CIC, CallRef: t.CallRef})
	call := v.hoCalls[t.CallRef]
	if call == nil {
		// Possibly the anchor releasing a call handed in to this VMSC.
		v.hoTarget.TrunkREL(env, t)
		return
	}
	if call.hoTrunks != nil {
		call.hoTrunks.Release(call.hoCIC)
	}
	if entry := call.ent(); entry != nil {
		v.endpoint(entry).SendQ931(env, call.remoteSig, q931.ReleaseComplete{
			CallRef: call.ref, Cause: q931.CauseNormal,
		})
		v.teardownVoicePDP(env, entry)
	}
	v.disengage(env, call)
	v.forget(call)
}

// transcodeCost returns the configured per-direction vocoder delay.
func (v *VMSC) transcodeCost() time.Duration {
	if v.cfg.TranscodeCost != 0 {
		return v.cfg.TranscodeCost
	}
	return codec.TranscodeCost
}
