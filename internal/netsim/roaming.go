package netsim

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/pstn"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// Roamer identities: a UK subscriber (MCC 234) visiting Hong Kong.
var (
	// RoamerIMSI is subscriber x's IMSI.
	RoamerIMSI = gsmid.IMSI("234150000000001")
	// RoamerMSISDN is x's UK directory number.
	RoamerMSISDN = gsmid.MSISDN("044781234567")
	// CallerNumber is y's Hong Kong fixed number.
	CallerNumber = gsmid.MSISDN("852211100001")
	// UKFixedNumber is a plain UK landline (for the gatekeeper-miss
	// fallback case).
	UKFixedNumber = gsmid.MSISDN("044612340001")
)

// roamer is subscriber x as provisioned in its home HLR.
var roamer = Subscriber{IMSI: RoamerIMSI, MSISDN: RoamerMSISDN, Ki: [16]byte{0x77, 0x01}}

// hkCell is the Hong Kong network's one cell.
var hkCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "454", MNC: "00", LAC: 1}, CI: 1}

// roamerMS is x's handset camped on BTS-HK, answering after 200 ms and
// talking once in a call.
func roamerMS() *gsm.MS {
	return gsm.NewMS(gsm.MSConfig{
		ID: "MS-X", IMSI: roamer.IMSI, MSISDN: roamer.MSISDN, Ki: roamer.Ki,
		BTS: "BTS-HK", LAI: hkCell.LAI,
		AutoAnswer: true, AnswerDelay: 200 * time.Millisecond, Talk: true,
	})
}

// RoamingGSMNet is the Fig 7 baseline: subscriber x roams in Hong Kong
// under a classic GSM MSC; a local call from y becomes two international
// trunks (the tromboning the paper eliminates).
type RoamingGSMNet struct {
	// Audited is the leak gate over every stateful element built below.
	Audited

	Env *sim.Env
	Rec *trace.Recorder

	HLRUK  *hlr.HLR
	GMSCUK *pstn.Exchange
	LEHK   *pstn.Exchange
	PhoneY *pstn.Phone
	MSCHK  *msc.MSC
	VLRHK  *vlr.VLR
	MS     *gsm.MS

	// IntlToUK carries y's leg to the UK; IntlToHK carries the GMSC's
	// leg back to Hong Kong — the two international trunks of Fig 7.
	IntlToUK *isup.TrunkGroup
	IntlToHK *isup.TrunkGroup
}

// BuildRoamingGSM wires the Fig 7 configuration.
func BuildRoamingGSM(seed int64) *RoamingGSMNet {
	n := &RoamingGSMNet{}
	b := newBuilder(seed, nil, nil, &n.Audited)
	n.Env, n.Rec = b.env, b.record()
	n.IntlToUK = b.trunks("LE-HK<->GMSC-UK", isup.TrunkInternational, 16)
	n.IntlToHK = b.trunks("GMSC-UK<->MSC-HK", isup.TrunkInternational, 16)

	n.HLRUK = b.hlr("HLR-UK")
	provision(n.HLRUK, roamer, 0)
	n.VLRHK = vlr.New(vlr.Config{
		ID: "VLR-HK", HLR: "HLR-UK", HomeCountryCode: "852", MSRNPrefix: "85290000",
	})
	n.MSCHK = msc.New(msc.Config{
		ID: "MSC-HK", VLR: "VLR-HK", PSTN: "GMSC-UK",
		Trunks: map[sim.NodeID]*isup.TrunkGroup{"GMSC-UK": n.IntlToHK},
	})
	n.GMSCUK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "GMSC-UK", HLR: "HLR-UK", MobilePrefixes: []string{"0447"},
		Routes: []pstn.Route{
			{Prefix: "85290", Next: "MSC-HK", Trunks: n.IntlToHK},
			{Prefix: "852", Next: "LE-HK", Trunks: n.IntlToUK},
		},
	})
	n.LEHK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "LE-HK",
		Routes: []pstn.Route{
			{Prefix: "044", Next: "GMSC-UK", Trunks: n.IntlToUK},
			{Prefix: "85221", Next: "PHONE-Y"},
		},
	})
	n.PhoneY = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-Y", Number: CallerNumber, Exchange: "LE-HK", Talk: true,
	})
	b.add(n.VLRHK, n.MSCHK, n.GMSCUK, n.LEHK, n.PhoneY)
	b.bss("BTS-HK", "BSC-HK", "MSC-HK", 0)
	n.MS = roamerMS()
	b.add(n.MS)

	lat := b.lat
	b.env.Connect("MS-X", "BTS-HK", "Um", lat.Um)
	b.env.Connect("MSC-HK", "VLR-HK", "B", lat.SS7)
	b.env.Connect("VLR-HK", "HLR-UK", "D", lat.Intl) // international SS7
	b.env.Connect("GMSC-UK", "HLR-UK", "C", lat.SS7)
	b.env.Connect("PHONE-Y", "LE-HK", "Line", lat.LAN)
	b.env.Connect("LE-HK", "GMSC-UK", "ISUP", lat.Intl)
	b.env.Connect("GMSC-UK", "MSC-HK", "ISUP", lat.Intl)
	return n
}

// Register powers on the roamer and waits for registration.
func (n *RoamingGSMNet) Register() error {
	n.MS.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if n.MS.State() != gsm.MSIdle {
		return fmt.Errorf("netsim: roamer state %v after registration", n.MS.State())
	}
	return nil
}

// InternationalSeizures returns the total international trunk legs used —
// the Fig 7 headline number (2 for the tromboned call).
func (n *RoamingGSMNet) InternationalSeizures() int {
	return n.IntlToUK.TotalSeizures() + n.IntlToHK.TotalSeizures()
}

// RoamingVGPRSNet is the Fig 8 configuration: the same roamer x now
// registers through a Hong Kong VMSC, so its MSISDN appears in the local
// gatekeeper's address-translation table; y's call goes local exchange ->
// H.323 gateway -> VoIP -> VMSC -> x, never leaving Hong Kong.
type RoamingVGPRSNet struct {
	// Audited is the leak gate over every stateful element built below.
	Audited

	Env *sim.Env
	Rec *trace.Recorder
	Dir *h323.Directory

	HLRUK   *hlr.HLR
	GMSCUK  *pstn.Exchange
	LEHK    *pstn.Exchange
	PhoneY  *pstn.Phone
	PhoneUK *pstn.Phone
	Gateway *h323.Gateway
	GK      *h323.Gatekeeper
	VMSC    *vmsc.VMSC
	VLRHK   *vlr.VLR
	SGSN    SGSNHandle
	GGSN    GGSNHandle
	MS      *gsm.MS

	// LocalTrunks carry the LE->gateway leg (a local call). IntlTrunks
	// carry the fallback path to the UK.
	LocalTrunks *isup.TrunkGroup
	IntlTrunks  *isup.TrunkGroup
}

// BuildRoamingVGPRS wires the Fig 8 configuration: a Hong Kong service area
// whose VLR, SGSN and GGSN reach the roamer's UK HLR over international
// links.
func BuildRoamingVGPRS(seed int64) *RoamingVGPRSNet {
	n := &RoamingVGPRSNet{Dir: h323.NewDirectory()}
	b := newBuilder(seed, nil, nil, &n.Audited)
	n.Env, n.Rec = b.env, b.record()
	n.LocalTrunks = b.trunks("LE-HK<->GW-HK", isup.TrunkLocal, 16)
	n.IntlTrunks = b.trunks("LE-HK<->GMSC-UK", isup.TrunkInternational, 16)

	n.HLRUK = b.hlr("HLR-UK")
	provision(n.HLRUK, roamer, 0)
	gkHK := ipnet.MustAddr("192.168.2.1")
	gwAddr := ipnet.MustAddr("192.168.2.2")
	a := b.area(areaSpec{
		id: nodeIDs("-HK", "-HK"), hlr: "HLR-UK", intl: true, cc: "852", msrn: "85290000",
		cell: hkCell, pool: "10.2.1.0", poolBits: 24, gk: gkHK, dir: n.Dir,
		opts: VGPRSOptions{GKMutate: func(cfg *h323.GatekeeperConfig) {
			// Unregistered Hong Kong numbers route out through the gateway —
			// the paper §4's "traditional telephone set in the PSTN,
			// connected indirectly through the H.323 network".
			cfg.PSTNGateway, cfg.PSTNPrefixes = gwAddr, []string{"852"}
		}},
	})
	n.VLRHK, n.VMSC, n.SGSN, n.GGSN, n.GK = a.vlr, a.vmsc, a.sgsn, a.ggsn, a.gk
	n.VMSC.ProvisionMSISDN(RoamerIMSI, RoamerMSISDN)

	n.Gateway = h323.NewGateway(h323.GatewayConfig{
		ID: "GW-HK", Addr: gwAddr, Router: "GI-HK", Gatekeeper: gkHK, Dir: n.Dir,
		Exchange: "LE-HK", Trunks: n.LocalTrunks,
	})
	a.gi.AddHost(gwAddr, "GW-HK")
	n.Dir.Bind(gwAddr, "GW-HK")
	n.MS = roamerMS()

	// The PSTN side: y's local exchange prefers the VoIP gateway for UK
	// numbers and falls back to the international route.
	n.GMSCUK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "GMSC-UK", HLR: "HLR-UK", MobilePrefixes: []string{"0447"},
		Routes: []pstn.Route{
			{Prefix: "0446", Next: "PHONE-UK"}, // UK fixed lines
		},
	})
	n.PhoneUK = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-UK", Number: UKFixedNumber, Exchange: "GMSC-UK",
		AutoAnswer: true, AnswerDelay: 200 * time.Millisecond,
	})
	n.LEHK = pstn.NewExchange(pstn.ExchangeConfig{
		ID: "LE-HK",
		Routes: []pstn.Route{
			{Prefix: "044", Next: "GW-HK", Trunks: n.LocalTrunks},
			{Prefix: "044", Next: "GMSC-UK", Trunks: n.IntlTrunks},
			{Prefix: "85221", Next: "PHONE-Y"},
		},
	})
	n.PhoneY = pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE-Y", Number: CallerNumber, Exchange: "LE-HK", Talk: true,
	})
	b.add(n.Gateway, n.MS, n.GMSCUK, n.PhoneUK, n.LEHK, n.PhoneY)

	lat := b.lat
	b.env.Connect("MS-X", "BTS-HK", "Um", lat.Um)
	b.env.Connect("GI-HK", "GW-HK", "IP", lat.LAN)
	b.env.Connect("PHONE-Y", "LE-HK", "Line", lat.LAN)
	b.env.Connect("LE-HK", "GW-HK", "ISUP", lat.Natl)
	b.env.Connect("LE-HK", "GMSC-UK", "ISUP", lat.Intl)
	b.env.Connect("GMSC-UK", "HLR-UK", "C", lat.SS7)
	b.env.Connect("PHONE-UK", "GMSC-UK", "Line", lat.LAN)
	return n
}

// Register powers on the roamer and waits for the full vGPRS registration
// (which, per Fig 8, puts x's UK MSISDN into the Hong Kong gatekeeper).
func (n *RoamingVGPRSNet) Register() error {
	n.MS.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if n.MS.State() != gsm.MSIdle {
		return fmt.Errorf("netsim: roamer state %v after registration", n.MS.State())
	}
	if _, ok := n.GK.Lookup(RoamerMSISDN); !ok {
		return fmt.Errorf("netsim: roamer not in gatekeeper table")
	}
	return nil
}

// InternationalSeizures returns international trunk legs used.
func (n *RoamingVGPRSNet) InternationalSeizures() int {
	return n.IntlTrunks.TotalSeizures()
}
