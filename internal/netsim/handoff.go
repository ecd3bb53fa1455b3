package netsim

import (
	"maps"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/sim"
	"vgprs/internal/vmsc"
)

// HandoffNet extends a VGPRSNet with a legacy GSM MSC and second radio
// subsystem — the coexistence configuration of paper Fig 9: the VMSC is the
// anchor; mid-call the MS moves to a cell served by the classic MSC over
// the standard MAP E inter-system handoff, and the voice path becomes
// H.323 <-> VMSC <-> ISUP trunk <-> MSC <-> MS.
type HandoffNet struct {
	*VGPRSNet
	// MSC is the legacy target switching center.
	MSC *msc.MSC
	// TargetBSC is the radio controller under the legacy MSC.
	TargetBSC *gsm.BSC
	// ETrunks is the VMSC<->MSC E-interface trunk group.
	ETrunks *isup.TrunkGroup
	// TargetCell is the neighbour cell the MS reports to trigger the
	// handoff.
	TargetCell gsmid.CGI

	// HomeCell is the anchor VMSC's own cell: a handed-over MS reporting
	// it triggers a subsequent handback (GSM 03.09).
	HomeCell gsmid.CGI
	// MSC3/ThirdCell/ETrunks3 form a second legacy system for the
	// subsequent-handover-to-a-third-MSC case.
	MSC3      *msc.MSC
	ThirdCell gsmid.CGI
	ETrunks3  *isup.TrunkGroup
}

// BuildHandoff wires the Fig 9 topology. The target-side VLR is shared with
// the VMSC (a common configuration: one VLR serving several MSC areas).
func BuildHandoff(opts VGPRSOptions) *HandoffNet {
	n := &HandoffNet{
		VGPRSNet:   &VGPRSNet{},
		TargetCell: gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}, CI: 0x20},
		HomeCell:   homeCell,
		ThirdCell:  gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 4}, CI: 0x40},
	}
	b := newBuilder(opts.Seed, opts.Latencies, opts.Sig, &n.Audited)
	n.ETrunks = b.trunks("VMSC<->MSC (E)", isup.TrunkNational, 8)
	n.ETrunks3 = b.trunks("VMSC<->MSC-3 (E)", isup.TrunkNational, 8)
	buildVGPRS(n.VGPRSNet, b, withHandoverPeers(opts,
		map[gsmid.CGI]vmsc.HandoverTarget{
			n.TargetCell: {MSC: "MSC-2", BTS: "BTS-2"},
			n.ThirdCell:  {MSC: "MSC-3", BTS: "BTS-3"},
		},
		map[sim.NodeID]*isup.TrunkGroup{"MSC-2": n.ETrunks, "MSC-3": n.ETrunks3},
		map[gsmid.CGI]sim.NodeID{n.HomeCell: "BTS-1"}))

	// Two legacy MSCs with their radio subsystems. They are E-interface
	// peers of the anchor only; a subsequent handover between them still
	// runs through the anchor.
	legacy := func(id, bts, bsc sim.NodeID, trunks *isup.TrunkGroup, prefix string) (*msc.MSC, *gsm.BSC) {
		m := msc.New(msc.Config{
			ID: id, VLR: "VLR-1",
			Trunks:               map[sim.NodeID]*isup.TrunkGroup{"VMSC-1": trunks},
			HandoverNumberPrefix: prefix,
		})
		b.add(m)
		c := b.bss(bts, bsc, id, 0)
		b.env.Connect(id, "VLR-1", "B", b.lat.SS7)
		b.env.Connect("VMSC-1", id, "E", b.lat.SS7)
		// Every MS can reach the target cell's BTS (neighbouring coverage).
		for _, ms := range n.MSs {
			b.env.Connect(ms.ID(), bts, "Um", b.lat.Um)
		}
		return m, c
	}
	n.MSC, n.TargetBSC = legacy("MSC-2", "BTS-2", "BSC-2", n.ETrunks, "88698")
	n.MSC3, _ = legacy("MSC-3", "BTS-3", "BSC-3", n.ETrunks3, "88696")
	return n
}

// withHandoverPeers returns opts with a VMSC mutator that runs the caller's
// own VMSCMutate first and then adds handover targets, E-interface trunk
// groups and handback cells to VMSC-1's configuration.
func withHandoverPeers(opts VGPRSOptions, targets map[gsmid.CGI]vmsc.HandoverTarget,
	trunks map[sim.NodeID]*isup.TrunkGroup, handback map[gsmid.CGI]sim.NodeID) VGPRSOptions {
	callerMutate := opts.VMSCMutate
	opts.VMSCMutate = func(vcfg *vmsc.Config) {
		if callerMutate != nil {
			callerMutate(vcfg)
		}
		if vcfg.HandoverTargets == nil {
			vcfg.HandoverTargets = map[gsmid.CGI]vmsc.HandoverTarget{}
		}
		maps.Copy(vcfg.HandoverTargets, targets)
		if vcfg.ETrunks == nil {
			vcfg.ETrunks = map[sim.NodeID]*isup.TrunkGroup{}
		}
		maps.Copy(vcfg.ETrunks, trunks)
		if vcfg.HandbackCells == nil {
			vcfg.HandbackCells = map[gsmid.CGI]sim.NodeID{}
		}
		maps.Copy(vcfg.HandbackCells, handback)
	}
	return opts
}

// VMSCHandoffNet is the VMSC-to-VMSC variant of the Fig 9 scenario — the
// paper's §7 note that "inter-system handoff between two VMSCs follows the
// same procedure".
type VMSCHandoffNet struct {
	*VGPRSNet
	// Target is the second VMSC, acting purely as the handover target.
	Target *vmsc.VMSC
	// TargetBSC is the radio controller under the target VMSC.
	TargetBSC *gsm.BSC
	// ETrunks is the anchor<->target E-interface trunk group.
	ETrunks *isup.TrunkGroup
	// TargetCell triggers the handoff when reported.
	TargetCell gsmid.CGI
}

// BuildHandoffVMSC wires a two-VMSC handoff topology. The target VMSC
// shares the VLR; it needs no GPRS or H.323 attachments for the target
// role, since the anchor keeps the VoIP leg.
func BuildHandoffVMSC(opts VGPRSOptions) *VMSCHandoffNet {
	n := &VMSCHandoffNet{VGPRSNet: &VGPRSNet{}, TargetCell: gsmid.CGI{
		LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 3}, CI: 0x30,
	}}
	b := newBuilder(opts.Seed, opts.Latencies, opts.Sig, &n.Audited)
	n.ETrunks = b.trunks("VMSC<->VMSC (E)", isup.TrunkNational, 8)
	buildVGPRS(n.VGPRSNet, b, withHandoverPeers(opts,
		map[gsmid.CGI]vmsc.HandoverTarget{n.TargetCell: {MSC: "VMSC-2", BTS: "BTS-2"}},
		map[sim.NodeID]*isup.TrunkGroup{"VMSC-2": n.ETrunks},
		map[gsmid.CGI]sim.NodeID{homeCell: "BTS-1"}))

	n.Target = vmsc.New(vmsc.Config{
		ID: "VMSC-2", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell:       n.TargetCell,
		Gatekeeper: gkAddr, Dir: n.Dir,
	})
	b.add(n.Target)
	n.TargetBSC = b.bss("BTS-2", "BSC-2", "VMSC-2", 0)
	b.env.Connect("VMSC-2", "VLR-1", "B", b.lat.SS7)
	b.env.Connect("VMSC-2", "SGSN-1", "Gb", b.lat.Gb)
	b.env.Connect("VMSC-1", "VMSC-2", "E", b.lat.SS7)
	for _, ms := range n.MSs {
		b.env.Connect(ms.ID(), "BTS-2", "Um", b.lat.Um)
	}
	return n
}

// RunHandoff drives the VMSC-to-VMSC handoff like HandoffNet.RunHandoff.
func (n *VMSCHandoffNet) RunHandoff(ms *gsm.MS, deadline time.Duration) bool {
	return runHandoff(n.VGPRSNet, ms, n.TargetCell, deadline)
}

// RunHandoff drives the Fig 9 scenario on an established call: the MS
// reports the target cell and the simulation runs until the handover
// completes (or the deadline passes). It returns whether the handover
// finished.
func (n *HandoffNet) RunHandoff(ms *gsm.MS, deadline time.Duration) bool {
	return runHandoff(n.VGPRSNet, ms, n.TargetCell, deadline)
}

// runHandoff has ms report cell and steps the simulation until the anchor
// VMSC counts one more completed handover, or deadline passes.
func runHandoff(n *VGPRSNet, ms *gsm.MS, cell gsmid.CGI, deadline time.Duration) bool {
	prev := n.VMSC.Stats().Handovers
	ms.ReportNeighbor(n.Env, cell)
	for end := n.Env.Now() + deadline; n.Env.Now() < end; {
		if n.VMSC.Stats().Handovers > prev {
			return true
		}
		if !n.Env.Step() {
			break
		}
	}
	return false
}
