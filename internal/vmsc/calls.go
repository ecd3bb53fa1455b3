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
	case gsm.IMSIDetach:
		v.handleIMSIDetach(env, t)
	case sigmap.CancelLocation:
		v.handleCancelLocation(env, from, t)
	case *gsm.TCHFrame:
		v.uplinkVoice(env, t)
	case gsm.TCHFrame:
		v.uplinkVoice(env, &t)
	case gsm.HandoverRequired:
		v.handoverRequired(env, t)
	case sigmap.PrepareSubsequentHandover:
		// This VMSC anchors a call whose relay MSC wants the MS moved on.
		v.subsequentHandover(env, from, t)
	case sigmap.PrepareSubsequentHandoverAck:
		// This VMSC is the relay of a handed-in MS (VMSC-to-VMSC case).
		v.hoTarget.SubsequentAck(env, t)
	case gsm.HandoverComplete:
		// A handback onto this VMSC's own system first; otherwise this
		// VMSC is a handover target for another anchor.
		if !v.handoverComplete(env, from, t) {
			v.hoTarget.Complete(env, from, t)
		}
	case sigmap.PrepareHandover:
		// This VMSC is the handover TARGET (VMSC-to-VMSC handoff).
		v.hoTarget.Prepare(env, from, t)
	case isup.IAM:
		// Only handover trunks terminate at a VMSC.
		v.hoTarget.TrunkArrived(env, from, t)
	case sigmap.SendInfoForOutgoingCallAck:
		v.dm.Resolve(t.Invoke, t)
	case sigmap.PrepareHandoverAck:
		v.dm.Resolve(t.Invoke, t)
	case sigmap.SendEndSignal:
		v.sendEndSignal(env, from, t)
	case isup.REL:
		v.trunkREL(env, from, t)
	case isup.TrunkFrame:
		v.trunkVoice(env, t)
	case gsm.ReleaseComplete, gsm.HandoverAccess, sigmap.SendEndSignalAck, isup.ACM, isup.RLC, isup.ANM:
		// Nothing to do: the BSC freed the channel, the handed-in MS's first
		// burst precedes its HandoverComplete, the anchor saw our end
		// signal, and trunk progress follows the HandoverCommand already sent.
	}
}

// handleIP dispatches the signalling packets arriving through an MS's PDP
// contexts. Downlink speech never reaches it: handleDL reads RTP in place.
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
		v.h225.AnswerRAS(env, in.RAS)
	case in.Q931 != nil:
		v.handleQ931(env, entry, pkt, in.Q931)
	}
}

// --- Mobile-originated calls (Fig 5, steps 2.1-2.9) ---

func (v *VMSC) handleMOSetup(env *sim.Env, bsc sim.NodeID, t gsm.Setup) {
	entry := v.entryByMS(t.MS)
	if entry == nil || !entry.registered() || entry.call != nil {
		env.Send(v.cfg.ID, bsc, gsm.Release{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		return
	}
	v.nextRAS++ // Q.931 references share the VMSC-wide sequence space
	call := &vCall{
		v: v, entryH: entry.self, env: env, leg: h323.Leg{Ref: uint16(v.nextRAS)}, radioRef: t.CallRef,
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
// retried dialogue finally fails). A call released meanwhile — the MS hung
// up during the dialogue — goes no further: admitting it now would leave a
// charging record at the gatekeeper that nothing ever disengages.
func moSIFOCDone(arg any, resp sim.Message, ok bool) {
	call := arg.(*vCall)
	entry := call.row()
	if entry == nil {
		return
	}
	v, env := call.v, call.env
	ack, isAck := resp.(sigmap.SendInfoForOutgoingCallAck)
	if !ok || !isAck || ack.Cause != sigmap.CauseNone {
		v.clearCall(env, call, true)
		return
	}
	v.setMSISDN(entry, ack.MSISDN)
	v.ensureSignallingPDP(env, entry, func(ok bool) {
		entry := call.row()
		switch {
		case entry == nil:
		case !ok:
			v.clearCall(env, call, true)
		default:
			// Step 2.3: the ARQ/ACF exchange that yields the destination's
			// call signalling channel transport address.
			v.nextRAS++
			v.h225.SendRAS(env, entry.self, call, h323.ARQ{
				Seq: v.nextRAS, CallerAlias: entry.msisdnKey.MSISDN(), CalledAlias: call.remote, CallRef: call.leg.Ref,
			}, rasMOAdmitDone)
		}
	})
}

// rasMOAdmitDone continues an MO call once the gatekeeper admits it (ACF
// carrying the destination's signalling address) or rejects/times out.
func rasMOAdmitDone(env *sim.Env, r rasReq, msg sim.Message) {
	v, call := (*VMSC)(r.Host), r.Call
	entry := call.row()
	if entry == nil {
		return
	}
	m, admitted := msg.(h323.ACF)
	if !admitted { // ARJ or timeout
		v.clearCall(env, call, true)
		return
	}
	call.leg.Peer = m.SignalAddr
	call.state = callDelivering
	// Step 2.4: Q.931 Setup through the GGSN to the terminal,
	// retransmitted (T303) until the far end acknowledges.
	v.h225.Setup(env, call, q931.Setup{
		CallRef: call.leg.Ref, Called: call.remote, Calling: entry.msisdnKey.MSISDN(),
		Media: q931.MediaAddr{Addr: entry.addr, Port: ipnet.PortRTP},
	})
}

// handleQ931 runs the call's leg on a message for the row's call and relays
// what it reports down the radio path. A Setup that is not a repeat of the
// call's own opens an MT call.
func (v *VMSC) handleQ931(env *sim.Env, entry *msEntry, pkt ipnet.Packet, msg sim.Message) {
	call := entry.call
	ref, _ := q931.CallRefOf(msg)
	if m, isSetup := msg.(q931.Setup); isSetup && (call == nil || call.leg.Ref != ref || call.leg.Peer != pkt.Src) {
		v.handleMTSetup(env, entry, pkt, m)
		return
	}
	if call == nil || call.leg.Ref != ref {
		return
	}
	switch v.h225.Receive(env, call, msg) {
	case h323.LegAlerted:
		// Step 2.7: ringback at the MS.
		env.Send(v.cfg.ID, v.bscOf(entry), gsm.Alerting{
			Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
		})
	case h323.LegAnswered:
		// Step 2.8 + 2.9: the answer reaches the MS; then the real-time
		// voice PDP context comes up.
		call.state = callConnecting
		env.Send(v.cfg.ID, v.bscOf(entry), gsm.Connect{
			Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
		})
		v.activateVoicePDP(env, call)
	}
}

// handleMTSetup runs Fig 6 steps 4.2-4.5: the Setup arrived through the
// GGSN on the MS's signalling PDP context.
func (v *VMSC) handleMTSetup(env *sim.Env, entry *msEntry, pkt ipnet.Packet, m q931.Setup) {
	if entry.call != nil {
		v.endpoint(entry).SendQ931(env, pkt.Src, q931.ReleaseComplete{
			CallRef: m.CallRef, Cause: q931.CauseUserBusy,
		})
		return
	}
	call := &vCall{
		v: v, entryH: entry.self, env: env, radioRef: uint32(m.CallRef), state: callPaging, remote: m.Calling,
		leg: h323.Leg{Ref: m.CallRef, Peer: pkt.Src, Media: m.Media, Incoming: true},
	}
	entry.call = call
	v.active++

	// Step 4.2 tail: Call Proceeding back to the caller.
	v.h225.Proceed(env, call)

	// Step 4.3: ARQ/ACF with the gatekeeper.
	v.nextRAS++
	v.h225.SendRAS(env, entry.self, call, h323.ARQ{
		Seq: v.nextRAS, CallerAlias: entry.msisdnKey.MSISDN(), CalledAlias: m.Calling,
		CallRef: m.CallRef, Answer: true,
	}, rasMTAdmitDone)
}

// rasMTAdmitDone pages the MS once the gatekeeper admits the terminating
// call; rejection (or timeout) releases the caller.
func rasMTAdmitDone(env *sim.Env, r rasReq, msg sim.Message) {
	v, call := (*VMSC)(r.Host), r.Call
	entry := call.row()
	if entry == nil {
		return
	}
	if _, admitted := msg.(h323.ACF); !admitted { // ARJ or timeout
		v.h225.Release(env, call, q931.CauseResourcesUnavail)
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
	entry := call.row()
	if entry == nil || call.state != callPaging {
		return
	}
	v := call.v
	v.h225.Release(call.env, call, q931.CauseNoAnswer)
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
	if entry == nil || entry.call == nil || entry.call.mobileOriginated || entry.call.state != callDelivering {
		return // only a call being delivered rings: a late Alerting never takes back an answer
	}
	// Step 4.6: Q.931 Alerting toward the calling terminal (ringback).
	v.h225.Alert(env, entry.call)
}

func (v *VMSC) radioConnect(env *sim.Env, t gsm.Connect) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil || entry.call.mobileOriginated || entry.call.state != callDelivering {
		return // the answer of an MT call set up on the radio path counts once
	}
	call := entry.call
	call.state = callConnecting
	// Step 4.7: Connect toward the caller, with the MS's media address,
	// retransmitted (T313) until the caller's ConnectAck.
	v.h225.Connect(env, call, q931.MediaAddr{Addr: entry.addr, Port: ipnet.PortRTP})
	// Step 4.8: activate the voice PDP context.
	v.activateVoicePDP(env, call)
}

// activateVoicePDP runs step 2.9/4.8 for an answered (callConnecting) call:
// a second, real-time PDP context for the voice packets. The call is active
// once it completes.
func (v *VMSC) activateVoicePDP(env *sim.Env, call *vCall) {
	entry := call.row()
	if entry == nil {
		return
	}
	if _, active := entry.gmm.Context(NSAPIVoice); active {
		v.establish(call, entry)
		return
	}
	err := v.client(entry).ActivatePDP(env, NSAPIVoice, gtp.VoiceQoS(), "",
		func(_ netip.Addr, ok bool) {
			entry := call.row()
			switch {
			case entry == nil:
				// Hung up while the context came up: hand it back unless
				// the row's next call already holds it.
				if e := call.ent(); ok && e != nil && e.call == nil {
					_ = v.client(e).DeactivatePDP(env, NSAPIVoice, nil)
				}
			case !ok:
				v.clearCall(env, call, true)
			default:
				v.establish(call, entry)
			}
		})
	if err != nil {
		v.clearCall(env, call, true)
	}
}

func (v *VMSC) establish(call *vCall, entry *msEntry) {
	call.state = callActive
	v.stats.CallsEstablished++
	if v.cfg.Hooks.OnCallEstablished != nil {
		v.cfg.Hooks.OnCallEstablished(entry.imsiKey.IMSI(), call.mobileOriginated)
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
	// Step 3.2: release the H.323 leg; the rest clears as on a far-end
	// release.
	v.h225.Release(env, entry.call, q931.CauseNormal)
	(*rowHost)(v).Released(env, entry.call)
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
		Seq: v.nextRAS, Alias: entry.msisdnKey.MSISDN(), CallRef: call.leg.Ref,
		Peer: call.remote,
	})
}

func (v *VMSC) releaseRadio(env *sim.Env, call *vCall) {
	if call.state == callHandedOver {
		// After inter-system handover the radio leg lives at the target
		// MSC; release it over the trunk instead.
		v.releaseHOLeg(env, call)
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
	if call.leg.Peer.IsValid() && entry != nil {
		v.h225.Release(env, call, q931.CauseResourcesUnavail)
		v.disengage(env, call)
	}
	if entry != nil {
		v.teardownVoicePDP(env, entry)
	}
	v.forget(call)
}

func (v *VMSC) forget(call *vCall) {
	if call.state == callReleased {
		return
	}
	call.state = callReleased
	v.h225.Reset(call) // a live retry timer must not resurrect the call
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
// transcoded frame while the vocoder delay elapses, and dnMsg is the radio
// message that carries dnFrame down to the MS by pointer (allocated at the
// call's first downlink frame, so a call that never talks pays one
// pointer); rtpBuf holds the marshalled RTP packet whose bytes the
// SGSN/GGSN relay legs alias until the far SGSN copies them (~4 ms +
// chaos jitter later); llcBuf and ulMsg
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
	dnMsg   *gsm.TCHFrame
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

func (v *VMSC) uplinkVoice(env *sim.Env, t *gsm.TCHFrame) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil {
		// Possibly a handed-in MS anchored at another (V)MSC.
		v.hoTarget.UplinkVoice(env, t)
		return
	}
	call := entry.call
	if !call.talking() || !call.leg.Media.Valid() {
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
	if call := j.call; call.talking() && call.leg.Media.Valid() {
		call.med.rtpBuf = j.v.sendRTP(call, call.med.upBuf[:call.med.upLen], call.med.rtpBuf[:0])
	}
}

// sendRTP sends a transcoded frame to the far party as the call's next RTP
// packet, marshalled onto buf, which it returns.
func (v *VMSC) sendRTP(call *vCall, payload, buf []byte) []byte {
	entry := call.ent()
	if entry == nil {
		return buf
	}
	call.rtpSeq++
	p := rtp.Packet{
		PayloadType: rtp.PayloadTypeGSM,
		Seq:         call.rtpSeq,
		Timestamp:   rtp.TimestampAt(call.env.Now()),
		SSRC:        uint32(call.leg.Ref),
		Payload:     payload,
	}
	buf = p.AppendTo(buf)
	v.endpoint(entry).SendRTP(call.env, call.leg.Media, buf)
	return buf
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
	if call.state == callReleased {
		return
	}
	env := call.env
	call.seqDown++
	if call.state == callHandedOver {
		// Post-handover: the radio leg is behind the E trunk.
		call.hoSeq++
		env.Send(j.v.cfg.ID, call.ho.peer, isup.TrunkFrame{
			CIC: call.ho.cic, CallRef: call.hoRef, Seq: call.hoSeq,
			Payload: call.med.dnFrame[:call.med.dnLen],
		})
		return
	}
	entry := call.ent()
	if entry == nil {
		return
	}
	if call.med.dnMsg == nil {
		call.med.dnMsg = new(gsm.TCHFrame)
	}
	*call.med.dnMsg = gsm.TCHFrame{
		Leg: gsm.LegA, MS: entry.ms, CallRef: call.radioRef,
		Seq: call.seqDown, Downlink: true, Payload: call.med.dnFrame[:call.med.dnLen],
	}
	sim.SendReused(env, j.v.cfg.ID, j.v.bscOf(entry), call.med.dnMsg)
}

// trunkVoice carries uplink speech arriving from a handover target MSC (as
// anchor) or anchor speech for a handed-in MS (as target).
func (v *VMSC) trunkVoice(env *sim.Env, t isup.TrunkFrame) {
	call := v.hoCalls[t.CallRef]
	if call == nil {
		v.hoTarget.TrunkVoice(env, t)
		return
	}
	if call.state != callHandedOver || !call.leg.Media.Valid() {
		return
	}
	v.stats.FramesUplink++
	payload := codec.Transcode(t.Payload)
	env.After(v.transcodeCost(), func() { v.sendRTP(call, payload, nil) })
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
	if call.ho.trunks != nil {
		call.ho.trunks.Release(call.ho.cic)
	}
	if entry := call.ent(); entry != nil {
		v.h225.Release(env, call, q931.CauseNormal)
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
