package gsm

import (
	"vgprs/internal/gb"
	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
)

// BSCConfig parameterises a base station controller.
type BSCConfig struct {
	ID sim.NodeID
	// MSC is the circuit-switched controller (an MSC or a VMSC — the BSC
	// cannot tell the difference, which is the paper's compatibility
	// argument).
	MSC sim.NodeID
	// SGSN, when set, enables the packet control unit: LLC frames from
	// GPRS MSs are relayed over Gb (Fig 1).
	SGSN sim.NodeID
	// BTSs lists the cells under this BSC (used to fan out paging).
	BTSs []sim.NodeID
	// TCHCapacity bounds concurrently allocated dedicated channels;
	// zero means 64.
	TCHCapacity int
	// LocalCells are cells under this BSC; a measurement report naming a
	// cell outside this set escalates to the MSC as Handover Required.
	LocalCells map[gsmid.CGI]bool
	// Cell is the cell identity stamped on uplink Gb traffic.
	Cell gsmid.CGI
}

// BSC is a base station controller: it owns radio-channel allocation,
// relays layer-3 signalling between Abis and A, fans out paging, detects
// inter-system handover, and (through its PCU) bridges GPRS traffic onto
// the Gb interface.
type BSC struct {
	cfg BSCConfig

	channels  map[sim.NodeID]uint16 // MS -> allocated channel
	nextChan  uint16
	servingBy map[sim.NodeID]sim.NodeID // MS -> BTS (learned from uplink)
	blocked   uint64
}

var _ sim.Node = (*BSC)(nil)

// NewBSC returns a BSC.
func NewBSC(cfg BSCConfig) *BSC {
	if cfg.TCHCapacity == 0 {
		cfg.TCHCapacity = 64
	}
	return &BSC{
		cfg:       cfg,
		channels:  make(map[sim.NodeID]uint16),
		servingBy: make(map[sim.NodeID]sim.NodeID),
	}
}

// ID implements sim.Node.
func (b *BSC) ID() sim.NodeID { return b.cfg.ID }

// ChannelsInUse returns the number of allocated dedicated channels.
func (b *BSC) ChannelsInUse() int { return len(b.channels) }

// Audit reports the BSC's transient state for netsim's leak gate.
func (b *BSC) Audit(report func(kind string, n int)) {
	report("channels in use", b.ChannelsInUse())
}

// Blocked returns how many channel requests were refused for congestion.
func (b *BSC) Blocked() uint64 { return b.blocked }

// Receive implements sim.Node.
func (b *BSC) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch iface {
	case "Abis":
		b.fromBTS(env, from, msg)
	case "A":
		b.fromMSC(env, msg)
	case "Gb":
		b.fromSGSN(env, msg)
	}
}

// fromBTS handles uplink traffic.
func (b *BSC) fromBTS(env *sim.Env, bts sim.NodeID, msg sim.Message) {
	if ms := TargetMS(msg); ms != "" {
		b.servingBy[ms] = bts
	}
	switch m := msg.(type) {
	case ChannelRequest:
		b.allocate(env, bts, m)
	case ReleaseComplete:
		b.free(m.MS)
		env.Send(b.cfg.ID, b.cfg.MSC, relayLeg(env, msg, LegA))
	case IMSIDetach:
		// The detach indication is the MS's last transmission; its
		// channel returns to idle immediately (no acknowledgement).
		b.free(m.MS)
		env.Send(b.cfg.ID, b.cfg.MSC, relayLeg(env, msg, LegA))
	case LLCFrame:
		if b.cfg.SGSN == "" {
			return // no PCU installed
		}
		env.Send(b.cfg.ID, b.cfg.SGSN, gb.ULUnitdata{
			TLLI: m.TLLI, MS: m.MS, Cell: b.cfg.Cell, PDU: m.Payload,
		})
	case MeasurementReport:
		if b.cfg.LocalCells[m.TargetCell] {
			return // intra-BSC handover is invisible to the core network
		}
		env.Send(b.cfg.ID, b.cfg.MSC, HandoverRequired{
			Leg: LegA, MS: m.MS, TargetCell: m.TargetCell,
		})
	default:
		env.Send(b.cfg.ID, b.cfg.MSC, relayLeg(env, msg, LegA))
	}
}

// fromMSC handles downlink traffic.
func (b *BSC) fromMSC(env *sim.Env, msg sim.Message) {
	switch m := msg.(type) {
	case Paging:
		// Fan paging out to every cell; only the serving BTS has the MS.
		for _, bts := range b.cfg.BTSs {
			env.Send(b.cfg.ID, bts, relayLeg(env, msg, LegAbis))
		}
		return
	case LocationUpdateAccept:
		// Registration done: the dedicated channel is released.
		defer b.free(m.MS)
	case LocationUpdateReject:
		defer b.free(m.MS)
	case HandoverCommand:
		// The MS leaves this BSC's cells; its channel returns to idle.
		defer b.free(m.MS)
	case Release:
		// Channel returns once the MS answers with ReleaseComplete
		// (handled uplink); nothing extra here.
	}
	ms := TargetMS(msg)
	bts, ok := b.servingBy[ms]
	if !ok {
		// Never heard from this MS: try every cell.
		for _, cell := range b.cfg.BTSs {
			env.Send(b.cfg.ID, cell, relayLeg(env, msg, LegAbis))
		}
		return
	}
	env.Send(b.cfg.ID, bts, relayLeg(env, msg, LegAbis))
}

// fromSGSN handles downlink Gb traffic (PCU function). Realtime contexts
// arrive as reusable pointer messages (the SGSN's voice fast path); their
// PDU bytes stay valid through the Abis/Um relay because the MS consumes
// them at arrival, well inside one frame interval.
func (b *BSC) fromSGSN(env *sim.Env, msg sim.Message) {
	var dl gb.DLUnitdata
	switch m := msg.(type) {
	case gb.DLUnitdata:
		dl = m
	case *gb.DLUnitdata:
		dl = *m
	default:
		return
	}
	bts, known := b.servingBy[dl.MS]
	frame := LLCFrame{Leg: LegAbis, MS: dl.MS, TLLI: dl.TLLI, Downlink: true, Payload: dl.PDU}
	if known {
		env.Send(b.cfg.ID, bts, frame)
		return
	}
	for _, cell := range b.cfg.BTSs {
		env.Send(b.cfg.ID, cell, frame)
	}
}

func (b *BSC) allocate(env *sim.Env, bts sim.NodeID, req ChannelRequest) {
	if ch, ok := b.channels[req.MS]; ok {
		// Already holding a channel (repeat request): re-grant it.
		env.Send(b.cfg.ID, bts, ImmediateAssignment{Leg: LegAbis, MS: req.MS, Channel: ch})
		return
	}
	if len(b.channels) >= b.cfg.TCHCapacity {
		b.blocked++
		env.Send(b.cfg.ID, bts, ImmediateAssignment{Leg: LegAbis, MS: req.MS, Rejected: true})
		return
	}
	b.nextChan++
	b.channels[req.MS] = b.nextChan
	env.Send(b.cfg.ID, bts, ImmediateAssignment{Leg: LegAbis, MS: req.MS, Channel: b.nextChan})
}

func (b *BSC) free(ms sim.NodeID) {
	delete(b.channels, ms)
}
