package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/pstn"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// DayNet is the day-in-the-life topology: the two-area TwoVMSCNet plus
// everything a sustained mixed workload needs — a PSTN side (local
// exchange, H.323 gateway, international fallback to a UK GMSC) for the
// Fig 7/Fig 8 trombone-vs-breakout paths, a UK roamer camped in area 1
// whose MSISDN lands in the local gatekeeper, and background GPRS data
// handsets with their own packet-only radio leg and an echo host on the
// Gi LAN.
type DayNet struct {
	*TwoVMSCNet

	Gateway *h323.Gateway
	LE      *pstn.Exchange
	GMSC    *pstn.Exchange
	PhoneY  *pstn.Phone
	PhoneUK *pstn.Phone

	// Roamer is the visiting UK subscriber (RoamerIMSI/RoamerMSISDN),
	// initially camped in area 1.
	Roamer *gsm.MS

	// DataMSs are packet-only handsets sharing the first subscribers'
	// IMSIs (the dual-mode case: voice via the VMSC, data via the PCU).
	DataMSs []*gprs.MS
	// Echo answers UDP on the Gi LAN for the data handsets to ping.
	Echo *EchoHost

	// LocalTrunks carry LE->gateway legs (local breakout, Fig 8);
	// IntlTrunks carry the LE->GMSC fallback (the tromboned path the
	// breakout avoids, Fig 7).
	LocalTrunks *isup.TrunkGroup
	IntlTrunks  *isup.TrunkGroup
}

// DayOptions parameterises BuildDay.
type DayOptions struct {
	VGPRSOptions
	// DataMS is how many of the first subscribers also get a packet-only
	// data handset (default 1, capped at NumMS).
	DataMS int
}

// gatewayAddr is the PSTN gateway's IP on the H.323 LAN.
var gatewayAddr = ipnet.MustAddr("192.168.1.2")

// echoAddr is the data echo host's IP on the Gi LAN.
var echoAddr = ipnet.MustAddr("192.168.1.100")

// BuildDay wires the day-in-the-life topology.
func BuildDay(opts DayOptions) *DayNet {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.DataMS == 0 {
		opts.DataMS = 1
	}
	if opts.DataMS > opts.NumMS {
		opts.DataMS = opts.NumMS
	}
	answerDelay := opts.AutoAnswerDelay
	if answerDelay == 0 {
		answerDelay = 200 * time.Millisecond
	}

	// Unregistered Hong-Kong-style local numbers (852…) break out to the
	// PSTN through the gateway; everything else resolves in the
	// gatekeeper's table, including the roamer's UK MSISDN.
	callerGK := opts.GKMutate
	opts.GKMutate = func(cfg *h323.GatekeeperConfig) {
		if callerGK != nil {
			callerGK(cfg)
		}
		cfg.PSTNGateway = gatewayAddr
		cfg.PSTNPrefixes = append(cfg.PSTNPrefixes, "852")
	}

	base := BuildTwoVMSC(opts.VGPRSOptions)
	env := base.Env
	lat := DefaultLatencies()
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}

	n := &DayNet{
		TwoVMSCNet:  base,
		LocalTrunks: isup.NewTrunkGroup("LE-1<->GW-1", isup.TrunkLocal, 16),
		IntlTrunks:  isup.NewTrunkGroup("LE-1<->GMSC-UK", isup.TrunkInternational, 16),
	}

	// PSTN side: local exchange, VoIP gateway, international fallback.
	n.Gateway = h323.NewGateway(h323.GatewayConfig{
		ID: "GW-1", Addr: gatewayAddr, Router: "GI", Gatekeeper: gkAddr,
		Dir: base.Dir, Exchange: "LE-1", Trunks: n.LocalTrunks,
	})
	n.Router.AddHost(gatewayAddr, "GW-1")
	base.Dir.Bind(gatewayAddr, "GW-1")

	n.GMSC = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "GMSC-UK", HLR: "HLR", MobilePrefixes: []string{"0447"},
		Routes: []pstn.Route{
			{Prefix: "0446", Next: "PHONE-UK"}, // UK fixed lines
		},
	})
	n.PhoneUK = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-UK", Number: UKFixedNumber, Exchange: "GMSC-UK",
		AutoAnswer: true, AnswerDelay: answerDelay,
	})
	// The LE prefers the VoIP gateway for UK numbers and falls back to
	// the international route when the gatekeeper cannot resolve one.
	n.LE = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "LE-1",
		Routes: []pstn.Route{
			{Prefix: "044", Next: "GW-1", Trunks: n.LocalTrunks},
			{Prefix: "044", Next: "GMSC-UK", Trunks: n.IntlTrunks},
			{Prefix: "85221", Next: "PHONE-Y"},
		},
	})
	n.PhoneY = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-Y", Number: CallerNumber, Exchange: "LE-1",
		Talk: opts.Talk, AutoAnswer: true, AnswerDelay: answerDelay,
	})

	// The visiting UK subscriber, provisioned in the shared HLR.
	mustProvision(n.HLR, hlr.Subscriber{
		IMSI: RoamerIMSI, MSISDN: RoamerMSISDN, Ki: roamerKi,
		Profile: sigmap.SubscriberProfile{
			MSISDN: RoamerMSISDN, InternationalAllowed: true, VoIPQoS: 1,
		},
	})
	n.VMSC.ProvisionMSISDN(RoamerIMSI, RoamerMSISDN)
	n.VMSC2.ProvisionMSISDN(RoamerIMSI, RoamerMSISDN)
	n.Roamer = gsm.NewMS(gsm.MSConfig{
		ID: "MS-ROAM", IMSI: RoamerIMSI, MSISDN: RoamerMSISDN, Ki: roamerKi,
		BTS: "BTS-1", LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		Talk: opts.Talk, DTX: opts.DTX,
		AutoAnswer: true, AnswerDelay: answerDelay,
	})

	// Background data: packet-only handsets for the first subscribers,
	// attached over a dedicated PCU radio leg (BuildVGPRS's BSC-1 carries
	// no SGSN link), plus the echo host they ping.
	n.Echo = &EchoHost{Node: "ECHO", Addr: echoAddr}
	n.Router.AddHost(echoAddr, "ECHO")
	btsD := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-D", BSC: "BSC-D"})
	bscD := gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-D", MSC: "VMSC-1", SGSN: "SGSN-1", BTSs: []sim.NodeID{"BTS-D"},
	})
	for i := 0; i < opts.DataMS; i++ {
		id := sim.NodeID(fmt.Sprintf("MS-%d-data", i+1))
		n.DataMSs = append(n.DataMSs, gprs.NewMS(gprs.MSConfig{
			ID: id, IMSI: base.Subscribers[i].IMSI, BTS: "BTS-D",
		}))
	}

	nodes := []sim.Node{
		n.Gateway, n.GMSC, n.PhoneUK, n.LE, n.PhoneY, n.Roamer,
		n.Echo, btsD, bscD,
	}
	for _, ms := range n.DataMSs {
		nodes = append(nodes, ms)
	}
	for _, node := range nodes {
		env.AddNode(node)
	}
	n.audit("GW-1", n.Gateway)
	n.audit("PHONE-Y", n.PhoneY)
	n.audit("PHONE-UK", n.PhoneUK)
	n.audit("LE-1<->GW-1", n.LocalTrunks)
	n.audit("LE-1<->GMSC-UK", n.IntlTrunks)
	for _, ms := range n.DataMSs {
		n.audit(string(ms.ID()), ms)
	}

	env.Connect("GI", "GW-1", "IP", lat.LAN)
	env.Connect("GI", "ECHO", "IP", lat.LAN)
	env.Connect("LE-1", "GW-1", "ISUP", lat.Natl)
	env.Connect("LE-1", "GMSC-UK", "ISUP", lat.Intl)
	env.Connect("GMSC-UK", "HLR", "C", lat.SS7)
	env.Connect("PHONE-Y", "LE-1", "Line", lat.LAN)
	env.Connect("PHONE-UK", "GMSC-UK", "Line", lat.LAN)
	env.Connect("MS-ROAM", "BTS-1", "Um", lat.Um)
	env.Connect("MS-ROAM", "BTS-2", "Um", lat.Um)
	env.Connect("BTS-D", "BSC-D", "Abis", lat.Abis)
	env.Connect("BSC-D", "VMSC-1", "A", lat.A)
	env.Connect("BSC-D", "SGSN-1", "Gb", lat.Gb)
	for _, ms := range n.DataMSs {
		env.Connect(ms.ID(), "BTS-D", "Um", lat.Um)
	}
	return n
}

// EchoHost is a Gi-LAN node that answers every IP packet with an echo of
// its payload — the far end for background data sessions.
type EchoHost struct {
	Node sim.NodeID
	Addr netip.Addr

	// Packets counts echoes served.
	Packets uint64
}

// ID implements sim.Node.
func (h *EchoHost) ID() sim.NodeID { return h.Node }

// Receive implements sim.Node.
func (h *EchoHost) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	if pkt, ok := msg.(ipnet.Packet); ok {
		h.Packets++
		env.Send(h.Node, from, pkt.Reply(pkt.Payload))
	}
}
