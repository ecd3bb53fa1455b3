package netsim

import (
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sim"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// TwoVMSCNet extends a VGPRSNet with a second complete vGPRS service area —
// its own VMSC, VLR, SGSN and radio subsystem — sharing the HLR, GGSN,
// gatekeeper and terminals. It exercises the paper's §5 movement case: when
// an MS leaves a VMSC's area, standard GSM location update runs through the
// new switch, the HLR cancels the old VLR, the old VLR tells its VMSC, and
// the old VMSC releases the gatekeeper alias and GPRS contexts it held on
// the subscriber's behalf. The two areas are also mutual inter-system
// handover peers over a MAP-E trunk group, so an MS crossing the boundary
// mid-call hands over (Fig 9) instead of dropping.
type TwoVMSCNet struct {
	*VGPRSNet
	// VMSC2/VLR2/SGSN2/BSC2 serve the second area.
	VMSC2 *vmsc.VMSC
	VLR2  *vlr.VLR
	SGSN2 SGSNHandle
	BSC2  *gsm.BSC
	// Area2LAI is the second area's location area; MoveTo it with BTS-2.
	Area2LAI gsmid.LAI
	// Area1Cell/Area2Cell are the areas' serving cells; an in-call MS
	// reporting the other area's cell triggers an inter-VMSC handover.
	Area1Cell gsmid.CGI
	Area2Cell gsmid.CGI
	// ETrunks is the VMSC-1<->VMSC-2 E-interface trunk group carrying
	// handed-over voice.
	ETrunks *isup.TrunkGroup
}

// BuildTwoVMSC wires the two-area topology. Area 1 is the standard
// BuildVGPRS network; area 2 adds BTS-2/BSC-2/VMSC-2/VLR-2/SGSN-2 with
// links mirroring area 1's, plus Um links from every MS to BTS-2.
func BuildTwoVMSC(opts VGPRSOptions) *TwoVMSCNet {
	n := &TwoVMSCNet{VGPRSNet: &VGPRSNet{}}
	buildTwoVMSC(n, newBuilder(opts.Seed, opts.Latencies, opts.Sig, &n.Audited), opts)
	return n
}

// buildTwoVMSC wires BuildTwoVMSC's network into n with b.
func buildTwoVMSC(n *TwoVMSCNet, b *builder, opts VGPRSOptions) {
	n.Area1Cell, n.Area2LAI = homeCell, gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}
	n.Area2Cell = gsmid.CGI{LAI: n.Area2LAI, CI: 2}
	n.ETrunks = b.trunks("VMSC-1<->VMSC-2 (E)", isup.TrunkNational, 16)

	// Each VMSC learns the other area as a handover target (and its own
	// cell as the handback destination); VMSC-1 on top of whatever the
	// caller's mutator set.
	buildVGPRS(n.VGPRSNet, b, withHandoverPeers(opts,
		map[gsmid.CGI]vmsc.HandoverTarget{n.Area2Cell: {MSC: "VMSC-2", BTS: "BTS-2"}},
		map[sim.NodeID]*isup.TrunkGroup{"VMSC-2": n.ETrunks},
		map[gsmid.CGI]sim.NodeID{n.Area1Cell: "BTS-1"}))
	a := b.area(areaSpec{
		id: nodeIDs("-2", ""), hlr: "HLR", cc: "886", msrn: "88690001", cell: n.Area2Cell,
		gk: gkAddr, dir: n.Dir, ggsn: n.GGSN,
		opts: withHandoverPeers(VGPRSOptions{AuthDisabled: opts.AuthDisabled, TCHCapacity: opts.TCHCapacity},
			map[gsmid.CGI]vmsc.HandoverTarget{n.Area1Cell: {MSC: "VMSC-1", BTS: "BTS-1"}},
			map[sim.NodeID]*isup.TrunkGroup{"VMSC-1": n.ETrunks},
			map[gsmid.CGI]sim.NodeID{n.Area2Cell: "BTS-2"}),
	})
	n.VLR2, n.VMSC2, n.SGSN2, n.BSC2 = a.vlr, a.vmsc, a.sgsn, a.bsc
	b.env.Connect("VMSC-1", "VMSC-2", "E", b.lat.SS7)

	for _, ms := range n.MSs {
		b.env.Connect(ms.ID(), "BTS-2", "Um", b.lat.Um)
	}
	for _, sub := range n.Subscribers {
		n.VMSC2.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
	}
}
