package msc

import (
	"fmt"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
)

// HandoverTarget implements the target side of the GSM inter-system
// handover (paper Fig 9 and §7): handover-number allocation on MAP
// PrepareHandover, answering the anchor's trunk, matching the MS's arrival
// on the target radio system, notifying the anchor with SendEndSignal, and
// bridging voice between the trunk and the radio leg.
//
// Both the classic MSC and the VMSC embed one — the paper's remark that
// "inter-system handoff between two VMSCs follows the same procedure" is
// this shared component.
type HandoverTarget struct {
	// Node is the owning (V)MSC's ID.
	Node sim.NodeID
	// NumberPrefix prefixes allocated handover numbers.
	NumberPrefix string

	pending   map[gsmid.MSISDN]*hoTargetCtx
	byRef     map[uint32]*hoTargetCtx
	nextNum   uint32
	nextChan  uint16
	completed uint64
}

type hoTargetCtx struct {
	imsi     gsmid.IMSI
	callRef  uint32
	number   gsmid.MSISDN
	anchor   sim.NodeID
	anchorIv ss7.InvokeID
	channel  uint16

	cic       isup.CIC
	trunkPeer sim.NodeID
	haveTrunk bool

	ms      sim.NodeID
	bsc     sim.NodeID
	haveMS  bool
	seqDown uint32
	// msLeft is set once this MSC commands the MS onward in a subsequent
	// handover: the radio leg is gone, so a later trunk release must not
	// be forwarded to the (departed) MS.
	msLeft bool
}

// NewHandoverTarget returns an empty target.
func NewHandoverTarget(node sim.NodeID, numberPrefix string) *HandoverTarget {
	if numberPrefix == "" {
		numberPrefix = "88699"
	}
	return &HandoverTarget{
		Node:         node,
		NumberPrefix: numberPrefix,
		pending:      make(map[gsmid.MSISDN]*hoTargetCtx),
		byRef:        make(map[uint32]*hoTargetCtx),
	}
}

// Completed returns the number of handovers finished at this target.
func (h *HandoverTarget) Completed() uint64 {
	return h.completed
}

// Open returns the handover legs this target holds: numbers allocated and
// awaiting the anchor's trunk, plus legs whose trunk arrived — in call, or
// waiting for the anchor's release after the MS moved on. Each leg counts
// once, though one between Prepare and the trunk's IAM sits in both tables.
// Zero once every handed-in call has cleared.
func (h *HandoverTarget) Open() int {
	n := len(h.byRef)
	for _, ctx := range h.pending {
		if h.byRef[ctx.callRef] != ctx {
			n++
		}
	}
	return n
}

// Prepare handles MAP_PREPARE_HANDOVER: reserve a radio channel, allocate a
// handover number, and acknowledge the anchor.
func (h *HandoverTarget) Prepare(env *sim.Env, anchor sim.NodeID, t sigmap.PrepareHandover) {
	h.nextNum++
	h.nextChan++
	number := gsmid.MSISDN(fmt.Sprintf("%s%05d", h.NumberPrefix, h.nextNum%100000))
	ctx := &hoTargetCtx{
		imsi: t.IMSI, callRef: t.CallRef, number: number,
		anchor: anchor, anchorIv: t.Invoke, channel: h.nextChan,
	}
	h.pending[number] = ctx
	h.byRef[t.CallRef] = ctx

	env.Send(h.Node, anchor, sigmap.PrepareHandoverAck{
		Invoke: t.Invoke, Cause: sigmap.CauseNone,
		HandoverNumber: number, RadioChannel: ctx.channel,
	})
}

// TrunkArrived consumes an IAM addressed to a pending handover number,
// answering it immediately (a network-internal leg). It reports whether the
// IAM belonged to a handover.
func (h *HandoverTarget) TrunkArrived(env *sim.Env, from sim.NodeID, t isup.IAM) bool {
	ctx, ok := h.pending[t.Called]
	if !ok {
		return false
	}
	ctx.cic = t.CIC
	ctx.trunkPeer = from
	ctx.haveTrunk = true
	delete(h.pending, t.Called)
	env.Send(h.Node, from, isup.ACM{CIC: t.CIC, CallRef: t.CallRef})
	env.Send(h.Node, from, isup.ANM{CIC: t.CIC, CallRef: t.CallRef})
	return true
}

// Complete consumes the MS's HandoverComplete on the target radio system
// and tells the anchor over MAP E. It reports whether the message belonged
// to a pending handover.
func (h *HandoverTarget) Complete(env *sim.Env, bsc sim.NodeID, t gsm.HandoverComplete) bool {
	ctx, ok := h.byRef[t.CallRef]
	if !ok {
		return false
	}
	ctx.ms = t.MS
	ctx.bsc = bsc
	ctx.haveMS = true
	h.completed++
	env.Send(h.Node, ctx.anchor, sigmap.SendEndSignal{Invoke: ctx.anchorIv, CallRef: t.CallRef})
	return true
}

// UplinkVoice bridges a handed-in MS's speech onto the anchor trunk,
// reporting whether the frame belonged to a handover.
func (h *HandoverTarget) UplinkVoice(env *sim.Env, t *gsm.TCHFrame) bool {
	ctx := h.forMS(t.MS)
	if ctx == nil || !ctx.haveTrunk {
		return false
	}
	env.Send(h.Node, ctx.trunkPeer, isup.TrunkFrame{
		CIC: ctx.cic, CallRef: ctx.callRef, Seq: t.Seq, Payload: t.Payload,
	})
	return true
}

// TrunkVoice bridges anchor-trunk speech down to the handed-in MS,
// reporting whether the frame belonged to a handover.
func (h *HandoverTarget) TrunkVoice(env *sim.Env, t isup.TrunkFrame) bool {
	ctx, ok := h.byRef[t.CallRef]
	if !ok || !ctx.haveMS {
		return false
	}
	ctx.seqDown++
	env.Send(h.Node, ctx.bsc, gsm.TCHFrame{
		Leg: gsm.LegA, MS: ctx.ms, CallRef: ctx.callRef,
		Seq: ctx.seqDown, Downlink: true, Payload: t.Payload,
	})
	return true
}

// RadioDisconnect handles the handed-in MS hanging up: release toward the
// anchor and clear the local radio leg. It reports whether it consumed the
// message.
func (h *HandoverTarget) RadioDisconnect(env *sim.Env, t gsm.Disconnect) bool {
	ctx := h.forMS(t.MS)
	if ctx == nil {
		return false
	}
	delete(h.byRef, ctx.callRef)
	if ctx.haveTrunk {
		env.Send(h.Node, ctx.trunkPeer, isup.REL{
			CIC: ctx.cic, CallRef: ctx.callRef, Cause: isup.CauseNormalClearing,
		})
	}
	env.Send(h.Node, ctx.bsc, gsm.Release{Leg: gsm.LegA, MS: ctx.ms, CallRef: ctx.callRef})
	return true
}

// TrunkREL handles the anchor releasing the handover trunk: clear the local
// radio leg. It reports whether it consumed the message. The caller is
// responsible for the RLC.
func (h *HandoverTarget) TrunkREL(env *sim.Env, t isup.REL) bool {
	ctx, ok := h.byRef[t.CallRef]
	if !ok {
		return false
	}
	delete(h.byRef, t.CallRef)
	if ctx.haveMS && !ctx.msLeft {
		env.Send(h.Node, ctx.bsc, gsm.Release{Leg: gsm.LegA, MS: ctx.ms, CallRef: ctx.callRef})
	}
	return true
}

// SubsequentRequired handles a handed-in MS reporting a cell this MSC does
// not control: the relay MSC cannot decide a further handover itself — it
// asks the anchor over MAP E (GSM 03.09 subsequent handover). It reports
// whether the message belonged to a handed-in MS.
func (h *HandoverTarget) SubsequentRequired(env *sim.Env, t gsm.HandoverRequired) bool {
	ctx := h.forMS(t.MS)
	if ctx == nil {
		return false
	}
	env.Send(h.Node, ctx.anchor, sigmap.PrepareSubsequentHandover{
		CallRef: ctx.callRef, TargetCell: t.TargetCell,
	})
	return true
}

// SubsequentAck consumes the anchor's answer: on success, command the MS
// toward the prepared target and mark the radio leg departed. The context
// itself stays until the anchor releases the trunk.
func (h *HandoverTarget) SubsequentAck(env *sim.Env, t sigmap.PrepareSubsequentHandoverAck) bool {
	ctx, ok := h.byRef[t.CallRef]
	if !ok {
		return false
	}
	if t.Cause != sigmap.CauseNone || !ctx.haveMS || ctx.msLeft {
		return true // refused, or nothing to move: the call stays put
	}
	ctx.msLeft = true
	env.Send(h.Node, ctx.bsc, gsm.HandoverCommand{
		Leg: gsm.LegA, MS: ctx.ms, CallRef: t.CallRef,
		TargetCell: t.TargetCell, TargetBTS: sim.NodeID(t.TargetBTS),
		Channel: t.RadioChannel,
	})
	return true
}

// forMS finds a handed-in context by MS.
func (h *HandoverTarget) forMS(ms sim.NodeID) *hoTargetCtx {
	for _, ctx := range h.byRef {
		if ctx.haveMS && !ctx.msLeft && ctx.ms == ms {
			return ctx
		}
	}
	return nil
}
