package msc

import (
	"sync"
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
	// PSTN is the uplink exchange for mobile-originated calls.
	PSTN sim.NodeID
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
	callRouting callState = iota + 1
	callPaging
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
	mobileUp  bool // true when the MS side originated
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

	mu         sync.Mutex
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

// RegisteredMS returns the number of MSs registered through this MSC.
func (m *MSC) RegisteredMS() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.regs)
}

// ActiveCalls returns the number of calls in progress.
func (m *MSC) ActiveCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byMS)
}

func (m *MSC) onRegistration(env *sim.Env, reg Registration) {
	if !reg.OK() {
		env.Send(m.cfg.ID, reg.BSC, gsm.LocationUpdateReject{
			Leg: gsm.LegA, MS: reg.MS, Cause: uint8(reg.Cause),
		})
		return
	}
	m.mu.Lock()
	m.regs[reg.IMSI] = msInfo{ms: reg.MS, bsc: reg.BSC, tmsi: reg.TMSI}
	m.mu.Unlock()
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
		m.handleMOSetup(env, from, t)
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
	case gsm.TCHFrame:
		m.uplinkVoice(env, t)
	case gsm.HandoverAccess:
		// First burst on the target cell; wait for HandoverComplete.
	case gsm.HandoverComplete:
		m.hoTarget.Complete(env, from, t)
	case isup.IAM:
		m.handleIAM(env, from, t)
	case isup.ACM:
		m.trunkACM(env, t)
	case isup.ANM:
		m.trunkANM(env, t)
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
	case sigmap.SendInfoForOutgoingCallAck:
		m.dm.Resolve(t.Invoke, t)
	case sigmap.SendInfoForIncomingCallAck:
		m.dm.Resolve(t.Invoke, t)
	}
}

// --- Mobile-originated calls ---

func (m *MSC) handleMOSetup(env *sim.Env, bsc sim.NodeID, t gsm.Setup) {
	m.mu.Lock()
	_, busy := m.byMS[t.MS]
	m.mu.Unlock()
	if busy {
		// One call per MS; a duplicate Setup (which the MS state machine
		// should prevent) is refused rather than clobbering the call.
		env.Send(m.cfg.ID, bsc, gsm.Release{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		return
	}
	call := &mscCall{
		ms: t.MS, bsc: bsc, radioRef: t.CallRef, trunkRef: t.CallRef,
		state: callRouting, mobileUp: true,
	}
	m.mu.Lock()
	m.byMS[t.MS] = call
	m.byTrunkRef[call.trunkRef] = call
	m.mu.Unlock()

	invoke := m.dm.Invoke(env, m.cfg.MAPTimeout, func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendInfoForOutgoingCallAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			m.clearRadio(env, call)
			return
		}
		trunks := m.cfg.Trunks[m.cfg.PSTN]
		var cic isup.CIC
		if trunks != nil {
			seized, err := trunks.Seize()
			if err != nil {
				m.clearRadio(env, call)
				return
			}
			cic = seized
		}
		call.cic = cic
		call.trunkPeer = m.cfg.PSTN
		call.trunks = trunks
		env.Send(m.cfg.ID, m.cfg.PSTN, isup.IAM{
			CIC: cic, CallRef: call.trunkRef, Called: t.Called, Calling: ack.MSISDN,
		})
	})
	env.Send(m.cfg.ID, m.cfg.VLR, sigmap.SendInfoForOutgoingCall{
		Invoke: invoke, Identity: m.identityForMS(t.MS), Called: t.Called,
	})
}

// identityForMS returns the TMSI identity of a registered MS (falling back
// to an empty identity for unknown MSs, which the VLR rejects).
func (m *MSC) identityForMS(ms sim.NodeID) gsmid.MobileIdentity {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, info := range m.regs {
		if info.ms == ms {
			return gsmid.ByTMSI(info.tmsi)
		}
	}
	return gsmid.MobileIdentity{}
}

func (m *MSC) trunkACM(env *sim.Env, t isup.ACM) {
	m.mu.Lock()
	call := m.byTrunkRef[t.CallRef]
	m.mu.Unlock()
	if call == nil || !call.mobileUp {
		return
	}
	call.state = callAlerting
	env.Send(m.cfg.ID, call.bsc, gsm.Alerting{Leg: gsm.LegA, MS: call.ms, CallRef: call.radioRef})
}

func (m *MSC) trunkANM(env *sim.Env, t isup.ANM) {
	m.mu.Lock()
	call := m.byTrunkRef[t.CallRef]
	m.mu.Unlock()
	if call == nil || !call.mobileUp {
		return
	}
	call.state = callActive
	env.Send(m.cfg.ID, call.bsc, gsm.Connect{Leg: gsm.LegA, MS: call.ms, CallRef: call.radioRef})
}

// --- Mobile-terminated calls ---

func (m *MSC) handleIAM(env *sim.Env, from sim.NodeID, t isup.IAM) {
	// A handover number routes to a pending handover, not a subscriber.
	if m.hoTarget.TrunkArrived(env, from, t) {
		return
	}

	call := &mscCall{trunkRef: t.CallRef, cic: t.CIC, trunkPeer: from, state: callPaging}
	m.mu.Lock()
	m.byTrunkRef[t.CallRef] = call
	m.mu.Unlock()

	invoke := m.dm.Invoke(env, m.cfg.MAPTimeout, func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendInfoForIncomingCallAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone {
			m.refuseTrunk(env, call, isup.CauseUnallocatedNumber)
			return
		}
		m.mu.Lock()
		info, known := m.regs[ack.IMSI]
		m.mu.Unlock()
		if !known {
			m.refuseTrunk(env, call, isup.CauseUnallocatedNumber)
			return
		}
		call.ms = info.ms
		call.bsc = info.bsc
		call.radioRef = t.CallRef
		m.mu.Lock()
		m.byMS[info.ms] = call
		m.mu.Unlock()
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
	m.mu.Lock()
	call := m.byMS[t.MS]
	var bsc sim.NodeID
	for _, info := range m.regs {
		if info.ms == t.MS {
			bsc = info.bsc
			break
		}
	}
	m.mu.Unlock()
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
	m.mu.Lock()
	call := m.byMS[t.MS]
	m.mu.Unlock()
	if call == nil || call.mobileUp {
		return
	}
	env.Send(m.cfg.ID, call.trunkPeer, isup.ACM{CIC: call.cic, CallRef: call.trunkRef})
}

func (m *MSC) radioConnect(env *sim.Env, t gsm.Connect) {
	m.mu.Lock()
	call := m.byMS[t.MS]
	m.mu.Unlock()
	if call == nil || call.mobileUp {
		return
	}
	call.state = callActive
	env.Send(m.cfg.ID, call.trunkPeer, isup.ANM{CIC: call.cic, CallRef: call.trunkRef})
}

// --- Clearing ---

func (m *MSC) radioDisconnect(env *sim.Env, t gsm.Disconnect) {
	m.mu.Lock()
	call := m.byMS[t.MS]
	m.mu.Unlock()
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
	m.mu.Lock()
	call := m.byTrunkRef[t.CallRef]
	m.mu.Unlock()
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
	m.mu.Lock()
	delete(m.byMS, call.ms)
	delete(m.byTrunkRef, call.trunkRef)
	m.mu.Unlock()
}

func (m *MSC) refuseTrunk(env *sim.Env, call *mscCall, cause isup.ReleaseCause) {
	env.Send(m.cfg.ID, call.trunkPeer, isup.REL{
		CIC: call.cic, CallRef: call.trunkRef, Cause: cause,
	})
	m.forget(call)
}

// --- Voice bridging ---

func (m *MSC) uplinkVoice(env *sim.Env, t gsm.TCHFrame) {
	m.mu.Lock()
	call := m.byMS[t.MS]
	m.mu.Unlock()
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
	m.mu.Lock()
	call := m.byTrunkRef[t.CallRef]
	m.mu.Unlock()
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
