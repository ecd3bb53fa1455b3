package msc

import (
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
)

// Config parameterises a classic circuit-switched MSC.
type Config struct {
	ID sim.NodeID
	// VLR is the attached visitor location register.
	VLR sim.NodeID
	// Trunks maps each trunk peer (the PSTN exchange, anchor MSCs on the
	// E interface) to the shared trunk group on that link; the MSC
	// seizes from it for outgoing legs.
	Trunks map[sim.NodeID]*isup.TrunkGroup
	// HandoverNumberPrefix prefixes allocated handover numbers (Fig 9).
	HandoverNumberPrefix string
	// PagingTimeout bounds the wait for a paging response. Zero = 5 s.
	PagingTimeout time.Duration
	// MAPTimeout bounds VLR dialogues. Zero = 5 s.
	MAPTimeout time.Duration
}

type msInfo struct {
	ms   sim.NodeID
	bsc  sim.NodeID
	tmsi gsmid.TMSI
}

type callState uint8

const (
	callPaging callState = iota + 1
	callAlerting
	callActive
	callClearing
)

type mscCall struct {
	ms        sim.NodeID
	bsc       sim.NodeID
	radioRef  uint32 // call reference on the radio side
	trunkRef  uint32 // call reference on the trunk side (equal unless HO)
	cic       isup.CIC
	trunkPeer sim.NodeID
	trunks    *isup.TrunkGroup
	state     callState
	seqDown   uint32
}

// MSC is a classic circuit-switched GSM mobile switching center: the
// baseline element vGPRS replaces. Voice goes to the PSTN over ISUP trunks
// instead of the VMSC's GPRS/H.323 path; everything on the radio side is
// identical, which is what lets the two coexist (paper §7).
type MSC struct {
	cfg       Config
	registrar *Registrar
	hoTarget  *HandoverTarget
	dm        *ss7.DialogueManager

	regs       map[gsmid.IMSI]msInfo
	byMS       map[sim.NodeID]*mscCall
	byTrunkRef map[uint32]*mscCall
}

var _ sim.Node = (*MSC)(nil)

// New returns an MSC.
func New(cfg Config) *MSC {
	if cfg.PagingTimeout == 0 {
		cfg.PagingTimeout = 5 * time.Second
	}
	if cfg.MAPTimeout == 0 {
		cfg.MAPTimeout = 5 * time.Second
	}
	if cfg.HandoverNumberPrefix == "" {
		cfg.HandoverNumberPrefix = "88699"
	}
	m := &MSC{
		cfg:        cfg,
		dm:         ss7.NewDialogueManager(cfg.ID),
		regs:       make(map[gsmid.IMSI]msInfo),
		byMS:       make(map[sim.NodeID]*mscCall),
		byTrunkRef: make(map[uint32]*mscCall),
	}
	m.registrar = NewRegistrar(cfg.ID, cfg.VLR, m.onRegistration)
	m.hoTarget = NewHandoverTarget(cfg.ID, cfg.HandoverNumberPrefix)
	return m
}

// ID implements sim.Node.
func (m *MSC) ID() sim.NodeID { return m.cfg.ID }

// ActiveCalls returns the number of calls in progress.
func (m *MSC) ActiveCalls() int {
	return len(m.byMS)
}

// Audit reports the MSC's transient state for netsim's leak gate: open MAP
// transactions, calls in progress and handed-in legs it serves as a handover
// target. Registrations are durable and not counted.
func (m *MSC) Audit(report func(kind string, n int)) {
	report("pending transactions", m.registrar.Pending()+m.dm.Outstanding())
	report("active calls", m.ActiveCalls())
	report("handover-target legs", m.hoTarget.Open())
}

func (m *MSC) onRegistration(env *sim.Env, reg Registration) {
	if !reg.OK() {
		env.Send(m.cfg.ID, reg.BSC, gsm.LocationUpdateReject{
			Leg: gsm.LegA, MS: reg.MS, Cause: uint8(reg.Cause),
		})
		return
	}
	m.regs[reg.IMSI] = msInfo{ms: reg.MS, bsc: reg.BSC, tmsi: reg.TMSI}
	env.Send(m.cfg.ID, reg.BSC, gsm.LocationUpdateAccept{
		Leg: gsm.LegA, MS: reg.MS, TMSI: reg.TMSI,
	})
}

// HandoversIn returns how many inter-system handovers this MSC received as
// the target.
func (m *MSC) HandoversIn() uint64 { return m.hoTarget.Completed() }

// Receive implements sim.Node.
func (m *MSC) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	if m.registrar.Handle(env, from, msg) {
		return
	}
	switch t := msg.(type) {
	case gsm.Setup:
		// This MSC carries no mobile-originated calls: refuse the attempt
		// so the MS clears and the BSC frees its channel.
		env.Send(m.cfg.ID, from, gsm.Release{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
	case gsm.Alerting:
		m.radioAlerting(env, t)
	case gsm.Connect:
		m.radioConnect(env, t)
	case gsm.Disconnect:
		m.radioDisconnect(env, t)
	case gsm.ReleaseComplete:
		// Channel freed at the BSC; nothing left here.
	case gsm.PagingResponse:
		m.pagingResponse(env, t)
	case *gsm.TCHFrame:
		m.uplinkVoice(env, t)
	case gsm.TCHFrame:
		m.uplinkVoice(env, &t)
	case gsm.HandoverAccess:
		// First burst on the target cell; wait for HandoverComplete.
	case gsm.HandoverComplete:
		m.hoTarget.Complete(env, from, t)
	case isup.IAM:
		m.handleIAM(env, from, t)
	case isup.REL:
		m.trunkREL(env, from, t)
	case isup.RLC:
		// Release already accounted when REL was processed.
	case isup.TrunkFrame:
		m.trunkVoice(env, t)
	case sigmap.PrepareHandover:
		m.hoTarget.Prepare(env, from, t)
	case gsm.HandoverRequired:
		// A handed-in MS wants to move again: only its anchor can decide.
		m.hoTarget.SubsequentRequired(env, t)
	case sigmap.PrepareSubsequentHandoverAck:
		m.hoTarget.SubsequentAck(env, t)
	case sigmap.SendEndSignalAck:
		// Anchor acknowledged; nothing further.
	case sigmap.SendInfoForIncomingCallAck:
		m.dm.Resolve(t.Invoke, t)
	}
}

// --- Mobile-terminated calls ---

func (m *MSC) handleIAM(env *sim.Env, from sim.NodeID, t isup.IAM) {
	// A handover number routes to a pending handover, not a subscriber.
	if m.hoTarget.TrunkArrived(env, from, t) {
		return
	}

	call := &mscCall{trunkRef: t.CallRef, cic: t.CIC, trunkPeer: from, state: callPaging}
	m.byTrunkRef[t.CallRef] = call

	invoke := m.dm.Invoke(env, m.cfg.MAPTimeout, func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendInfoForIncomingCallAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			m.refuseTrunk(env, call, isup.CauseUnallocatedNumber)
			return
		}
		info, known := m.regs[ack.IMSI]
		if !known {
			m.refuseTrunk(env, call, isup.CauseUnallocatedNumber)
			return
		}
		call.ms = info.ms
		call.bsc = info.bsc
		call.radioRef = t.CallRef
		m.byMS[info.ms] = call
		env.Send(m.cfg.ID, info.bsc, gsm.Paging{
			Leg: gsm.LegA, MS: info.ms, Identity: gsmid.ByTMSI(info.tmsi),
		})
		env.After(m.cfg.PagingTimeout, func() {
			if call.state == callPaging {
				m.clearRadio(env, call)
				m.refuseTrunk(env, call, isup.CauseNoAnswer)
			}
		})
	})
	env.Send(m.cfg.ID, m.cfg.VLR, sigmap.SendInfoForIncomingCall{Invoke: invoke, MSRN: t.Called})
}

func (m *MSC) pagingResponse(env *sim.Env, t gsm.PagingResponse) {
	call := m.byMS[t.MS]
	var bsc sim.NodeID
	for _, info := range m.regs {
		if info.ms == t.MS {
			bsc = info.bsc
			break
		}
	}
	if call == nil || call.state != callPaging {
		// Orphan paging response (the caller gave up): free the channel
		// the MS acquired to answer.
		if bsc != "" {
			env.Send(m.cfg.ID, bsc, gsm.Release{Leg: gsm.LegA, MS: t.MS})
		}
		return
	}
	call.state = callAlerting
	env.Send(m.cfg.ID, call.bsc, gsm.Setup{
		Leg: gsm.LegA, MS: call.ms, CallRef: call.radioRef,
	})
}

func (m *MSC) radioAlerting(env *sim.Env, t gsm.Alerting) {
	call := m.byMS[t.MS]
	if call == nil {
		return
	}
	env.Send(m.cfg.ID, call.trunkPeer, isup.ACM{CIC: call.cic, CallRef: call.trunkRef})
}

func (m *MSC) radioConnect(env *sim.Env, t gsm.Connect) {
	call := m.byMS[t.MS]
	if call == nil {
		return
	}
	call.state = callActive
	env.Send(m.cfg.ID, call.trunkPeer, isup.ANM{CIC: call.cic, CallRef: call.trunkRef})
}

// --- Clearing ---

func (m *MSC) radioDisconnect(env *sim.Env, t gsm.Disconnect) {
	call := m.byMS[t.MS]
	if call == nil {
		// Possibly a handed-over MS hanging up on this target system.
		m.hoTarget.RadioDisconnect(env, t)
		return
	}
	if call.trunkPeer != "" {
		env.Send(m.cfg.ID, call.trunkPeer, isup.REL{
			CIC: call.cic, CallRef: call.trunkRef, Cause: isup.CauseNormalClearing,
		})
		if call.trunks != nil {
			call.trunks.Release(call.cic)
		}
	}
	m.clearRadio(env, call)
}

func (m *MSC) trunkREL(env *sim.Env, from sim.NodeID, t isup.REL) {
	env.Send(m.cfg.ID, from, isup.RLC{CIC: t.CIC, CallRef: t.CallRef})
	call := m.byTrunkRef[t.CallRef]
	if call == nil {
		// Possibly the anchor releasing a handed-over call.
		m.hoTarget.TrunkREL(env, t)
		return
	}
	if call.trunks != nil {
		call.trunks.Release(call.cic)
	}
	if call.ms != "" {
		m.clearRadio(env, call)
	} else {
		m.forget(call)
	}
}

// clearRadio releases the radio leg and forgets the call.
func (m *MSC) clearRadio(env *sim.Env, call *mscCall) {
	if call.ms != "" && call.bsc != "" {
		env.Send(m.cfg.ID, call.bsc, gsm.Release{Leg: gsm.LegA, MS: call.ms, CallRef: call.radioRef})
	}
	m.forget(call)
}

func (m *MSC) forget(call *mscCall) {
	delete(m.byMS, call.ms)
	delete(m.byTrunkRef, call.trunkRef)
}

func (m *MSC) refuseTrunk(env *sim.Env, call *mscCall, cause isup.ReleaseCause) {
	env.Send(m.cfg.ID, call.trunkPeer, isup.REL{
		CIC: call.cic, CallRef: call.trunkRef, Cause: cause,
	})
	m.forget(call)
}

// --- Voice bridging ---

func (m *MSC) uplinkVoice(env *sim.Env, t *gsm.TCHFrame) {
	call := m.byMS[t.MS]
	if call == nil {
		m.hoTarget.UplinkVoice(env, t)
		return
	}
	if call.trunkPeer != "" {
		env.Send(m.cfg.ID, call.trunkPeer, isup.TrunkFrame{
			CIC: call.cic, CallRef: call.trunkRef, Seq: t.Seq, Payload: t.Payload,
		})
	}
}

func (m *MSC) trunkVoice(env *sim.Env, t isup.TrunkFrame) {
	call := m.byTrunkRef[t.CallRef]
	if call == nil {
		m.hoTarget.TrunkVoice(env, t)
		return
	}
	if call.ms != "" {
		call.seqDown++
		env.Send(m.cfg.ID, call.bsc, gsm.TCHFrame{
			Leg: gsm.LegA, MS: call.ms, CallRef: call.radioRef,
			Seq: call.seqDown, Downlink: true, Payload: t.Payload,
		})
	}
}
