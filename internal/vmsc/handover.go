package vmsc

import (
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// handoverRequired runs the anchor side of the inter-system handoff (paper
// §7, Fig 9): the serving BSC reports that the MS needs a cell under a
// legacy MSC. The VMSC prepares the target over MAP E, builds the
// circuit-switched trunk to the handover number, and orders the MS across.
// The VMSC stays the anchor: the H.323 leg toward the terminal is untouched.
func (v *VMSC) handoverRequired(env *sim.Env, t gsm.HandoverRequired) {
	entry := v.entryByMS(t.MS)
	if entry == nil || entry.call == nil || entry.call.state != callActive {
		// Not an anchored call: a handed-in MS asking to move again is
		// relayed to its anchor (GSM 03.09 subsequent handover).
		v.hoTarget.SubsequentRequired(env, t)
		return
	}
	call := entry.call
	target, known := v.cfg.HandoverTargets[t.TargetCell]
	if !known {
		return // no neighbour relation; the call simply stays put
	}

	v.nextHORef++
	hoRef := 0x80000000 | v.nextHORef
	call.hoRef = hoRef
	v.hoCalls[hoRef] = call

	invoke := v.dm.Invoke(env, v.sigDeadline(), func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.PrepareHandoverAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			delete(v.hoCalls, hoRef)
			call.hoRef = 0
			return // target refused; call continues on the old cell
		}
		v.buildHandoverTrunk(env, call, target, t.TargetCell, ack)
	})
	env.Send(v.cfg.ID, target.MSC, sigmap.PrepareHandover{
		Invoke: invoke, IMSI: entry.imsiKey.IMSI(), CallRef: hoRef, TargetCell: t.TargetCell,
	})
}

// buildHandoverTrunk seizes the E-interface circuit toward the target MSC
// and, once the IAM is away, commands the MS to the target cell. The target
// answers the trunk immediately (it is a network leg), so the command can
// follow the IAM without waiting.
func (v *VMSC) buildHandoverTrunk(env *sim.Env, call *vCall, target HandoverTarget,
	cell gsmid.CGI, ack sigmap.PrepareHandoverAck) {
	leg, seized := v.seizeLeg(target.MSC)
	if !seized {
		return // no circuit; abandon the handover, keep the call
	}
	call.ho = leg
	env.Send(v.cfg.ID, target.MSC, isup.IAM{
		CIC: leg.cic, CallRef: call.hoRef, Called: ack.HandoverNumber,
	})
	if entry := call.ent(); entry != nil {
		env.Send(v.cfg.ID, v.bscOf(entry), gsm.HandoverCommand{
			Leg: gsm.LegA, MS: entry.ms, CallRef: call.hoRef,
			TargetCell: cell, TargetBTS: target.BTS, Channel: ack.RadioChannel,
		})
	}
}

// sendEndSignal completes the handover: the target MSC reports the MS has
// arrived, and the anchor switches its media bridge from the A interface to
// the E trunk.
func (v *VMSC) sendEndSignal(env *sim.Env, from sim.NodeID, t sigmap.SendEndSignal) {
	call := v.hoCalls[t.CallRef]
	if call == nil {
		return
	}
	switch {
	case call.hoNext.peer == from:
		// Subsequent handover to a third MSC confirmed: the old relay's
		// leg is released and the new leg becomes the active one.
		v.releaseHOLeg(env, call)
		call.ho, call.hoNext = call.hoNext, hoLeg{}
	case call.ho.peer == from && call.state == callActive:
		call.state = callHandedOver
	default:
		return
	}
	v.stats.Handovers++
	env.Send(v.cfg.ID, from, sigmap.SendEndSignalAck{Invoke: t.Invoke, CallRef: t.CallRef})
	if v.cfg.Hooks.OnHandoverComplete != nil {
		if entry := call.ent(); entry != nil {
			v.cfg.Hooks.OnHandoverComplete(entry.imsiKey.IMSI(), from)
		}
	}
}

// subsequentHandover runs the anchor side of GSM 03.09 subsequent handover:
// the relay MSC currently serving a handed-over MS reports that the MS
// needs yet another cell. Two outcomes, both decided here because only the
// anchor owns the call: a handback onto the VMSC's own radio system, or a
// further handover to a third MSC.
func (v *VMSC) subsequentHandover(env *sim.Env, from sim.NodeID, t sigmap.PrepareSubsequentHandover) {
	refuse := func() {
		env.Send(v.cfg.ID, from, sigmap.PrepareSubsequentHandoverAck{
			Invoke: t.Invoke, Cause: sigmap.CauseSystemFailure, CallRef: t.CallRef,
		})
	}
	call := v.hoCalls[t.CallRef]
	if call == nil || call.state != callHandedOver || call.ho.peer != from || call.hoNext.peer != "" {
		refuse()
		return
	}

	if bts, mine := v.cfg.HandbackCells[t.TargetCell]; mine {
		// Handback: reserve a channel on the anchor's own system and hand
		// the radio description to the relay; the completion arrives as
		// HandoverComplete on the A interface.
		v.nextHOChan++
		env.Send(v.cfg.ID, from, sigmap.PrepareSubsequentHandoverAck{
			Invoke: t.Invoke, Cause: sigmap.CauseNone, CallRef: t.CallRef,
			TargetCell: t.TargetCell, TargetBTS: string(bts),
			RadioChannel: v.nextHOChan,
		})
		return
	}

	target, known := v.cfg.HandoverTargets[t.TargetCell]
	if !known || target.MSC == from {
		refuse()
		return
	}
	// Third MSC: prepare it exactly like a first handover, but the
	// handover command travels through the relay, and the old trunk lives
	// until the new target confirms the MS's arrival.
	invoke := v.dm.Invoke(env, v.sigDeadline(), func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.PrepareHandoverAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			refuse()
			return
		}
		leg, seized := v.seizeLeg(target.MSC)
		if !seized {
			refuse()
			return
		}
		call.hoNext = leg
		env.Send(v.cfg.ID, target.MSC, isup.IAM{
			CIC: leg.cic, CallRef: call.hoRef, Called: ack.HandoverNumber,
		})
		env.Send(v.cfg.ID, from, sigmap.PrepareSubsequentHandoverAck{
			Invoke: t.Invoke, Cause: sigmap.CauseNone, CallRef: t.CallRef,
			TargetCell: t.TargetCell, TargetBTS: string(target.BTS),
			RadioChannel: ack.RadioChannel,
		})
	})
	var imsi gsmid.IMSI
	if entry := call.ent(); entry != nil {
		imsi = entry.imsiKey.IMSI()
	}
	env.Send(v.cfg.ID, target.MSC, sigmap.PrepareHandover{
		Invoke: invoke, IMSI: imsi, CallRef: call.hoRef,
		TargetCell: t.TargetCell,
	})
}

// handoverComplete consumes the MS arriving on the anchor's own radio
// system — the completion of a handback. It reports whether the message
// belonged to a handback (otherwise the caller tries the target role).
func (v *VMSC) handoverComplete(env *sim.Env, from sim.NodeID, t gsm.HandoverComplete) bool {
	call := v.hoCalls[t.CallRef]
	if call == nil || call.state != callHandedOver {
		return false
	}
	// The MS is home: drop the relay leg and bridge to the A interface.
	v.releaseHOLeg(env, call)
	call.state = callActive
	call.hoRef = 0
	delete(v.hoCalls, t.CallRef)
	entry := call.ent()
	if entry != nil {
		entry.bsc = v.nodes.ID(from)
	}
	v.stats.Handovers++
	if v.cfg.Hooks.OnHandoverComplete != nil && entry != nil {
		v.cfg.Hooks.OnHandoverComplete(entry.imsiKey.IMSI(), v.cfg.ID)
	}
	return true
}

// seizeLeg takes an E-interface circuit toward a target MSC (none without a
// trunk group); false if every circuit is busy.
func (v *VMSC) seizeLeg(peer sim.NodeID) (hoLeg, bool) {
	leg := hoLeg{peer: peer, trunks: v.cfg.ETrunks[peer]}
	if leg.trunks != nil {
		cic, err := leg.trunks.Seize()
		if err != nil {
			return hoLeg{}, false
		}
		leg.cic = cic
	}
	return leg, true
}

// releaseHOLeg releases the current handover circuit toward the relay MSC.
func (v *VMSC) releaseHOLeg(env *sim.Env, call *vCall) {
	env.Send(v.cfg.ID, call.ho.peer, isup.REL{
		CIC: call.ho.cic, CallRef: call.hoRef, Cause: isup.CauseNormalClearing,
	})
	if call.ho.trunks != nil {
		call.ho.trunks.Release(call.ho.cic)
	}
	call.ho = hoLeg{}
}
