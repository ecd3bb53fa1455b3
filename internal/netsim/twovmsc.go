package netsim

import (
	"vgprs/internal/gprs"
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
// links mirroring area 1's, plus Um links from every MS to BTS-2. Under
// sharding (opts.Shards >= 3) the second area's elements run on shard 2;
// at Shards == 2 they share shard 0 with the rest of the core.
func BuildTwoVMSC(opts VGPRSOptions) *TwoVMSCNet {
	area1Cell := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}
	area2LAI := gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}
	area2Cell := gsmid.CGI{LAI: area2LAI, CI: 2}
	eTrunks := isup.NewTrunkGroup("VMSC-1<->VMSC-2 (E)", isup.TrunkNational, 16)

	// VMSC-1 learns area 2 as a handover target (and its own cell as the
	// handback destination) on top of whatever the caller's mutator set.
	callerMutate := opts.VMSCMutate
	opts.VMSCMutate = func(vcfg *vmsc.Config) {
		if callerMutate != nil {
			callerMutate(vcfg)
		}
		if vcfg.HandoverTargets == nil {
			vcfg.HandoverTargets = map[gsmid.CGI]vmsc.HandoverTarget{}
		}
		vcfg.HandoverTargets[area2Cell] = vmsc.HandoverTarget{MSC: "VMSC-2", BTS: "BTS-2"}
		if vcfg.ETrunks == nil {
			vcfg.ETrunks = map[sim.NodeID]*isup.TrunkGroup{}
		}
		vcfg.ETrunks["VMSC-2"] = eTrunks
		if vcfg.HandbackCells == nil {
			vcfg.HandbackCells = map[gsmid.CGI]sim.NodeID{}
		}
		vcfg.HandbackCells[area1Cell] = "BTS-1"
	}

	base := BuildVGPRS(opts)
	env := base.Env
	lat := DefaultLatencies()
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}
	var sig SigProfile
	if opts.Sig != nil {
		sig = *opts.Sig
	}

	n := &TwoVMSCNet{
		VGPRSNet:  base,
		Area2LAI:  area2LAI,
		Area1Cell: area1Cell,
		Area2Cell: area2Cell,
		ETrunks:   eTrunks,
	}

	n.VLR2 = vlr.New(vlr.Config{
		ID: "VLR-2", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690001",
		AuthDisabled: opts.AuthDisabled,
		SigRTO:       sig.RTO, SigRetries: sig.Retries,
	})
	sgsn2 := gprs.NewSGSN(gprs.SGSNConfig{
		ID: "SGSN-2", GGSN: "GGSN-1", HLR: "HLR",
		SigRTO: sig.RTO, SigRetries: sig.Retries,
	})
	n.SGSN2 = SGSNHandle{sgsn2}
	n.VMSC2 = vmsc.New(vmsc.Config{
		ID: "VMSC-2", VLR: "VLR-2", SGSN: "SGSN-2",
		Cell:       area2Cell,
		Gatekeeper: gkAddr, Dir: base.Dir,
		SigRTO: sig.RTO, SigRetries: sig.Retries, H323Retries: sig.H323Retries,
		HandoverTargets: map[gsmid.CGI]vmsc.HandoverTarget{
			area1Cell: {MSC: "VMSC-1", BTS: "BTS-1"},
		},
		ETrunks:       map[sim.NodeID]*isup.TrunkGroup{"VMSC-1": eTrunks},
		HandbackCells: map[gsmid.CGI]sim.NodeID{area2Cell: "BTS-2"},
	})
	bts2 := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-2", BSC: "BSC-2"})
	n.BSC2 = gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-2", MSC: "VMSC-2", BTSs: []sim.NodeID{"BTS-2"},
		TCHCapacity: opts.TCHCapacity,
	})

	for _, node := range []sim.Node{n.VLR2, sgsn2, n.VMSC2, bts2, n.BSC2} {
		env.AddNode(node)
	}
	n.audit("VMSC-2", n.VMSC2)
	n.audit("VLR-2", n.VLR2)
	n.audit("SGSN-2", sgsn2)
	n.audit("BSC-2", n.BSC2)
	n.audit("VMSC-1<->VMSC-2", eTrunks)
	env.Connect("BTS-2", "BSC-2", "Abis", lat.Abis)
	env.Connect("BSC-2", "VMSC-2", "A", lat.A)
	env.Connect("VMSC-2", "VLR-2", "B", lat.SS7)
	env.Connect("VLR-2", "HLR", "D", lat.SS7)
	env.Connect("VMSC-2", "SGSN-2", "Gb", lat.Gb)
	env.Connect("SGSN-2", "GGSN-1", "Gn", lat.Gn)
	env.Connect("SGSN-2", "HLR", "Gr", lat.SS7)
	env.Connect("VMSC-1", "VMSC-2", "E", lat.SS7)

	for _, ms := range base.MSs {
		env.Connect(ms.ID(), "BTS-2", "Um", lat.Um)
	}
	for _, sub := range base.Subscribers {
		n.VMSC2.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
	}

	// With three or more shards the second area gets its own: every link
	// into it (A, E, D, Gn, Gr, Um) has non-zero latency, so the
	// conservative lookahead stays positive. At exactly two shards the
	// area-2 elements stay on shard 0 with the rest of the core.
	if opts.Shards >= 3 {
		for _, id := range []sim.NodeID{"VLR-2", "SGSN-2", "VMSC-2", "BTS-2", "BSC-2"} {
			env.AssignShard(id, 2)
		}
	}
	return n
}
