// Package netsim assembles complete simulated networks for the experiments:
// the vGPRS architecture of paper Fig 2(b) (BuildVGPRS), the international
// roaming configurations of Figs 7-8 (BuildRoamingGSM, BuildRoamingVGPRS),
// the inter-system handoff configurations of Fig 9 (BuildHandoff to a
// legacy MSC, BuildHandoffVMSC between two VMSCs), and the TR 23.923
// baseline of §6 (BuildTR23923). One builder wires them all and puts every
// stateful element behind each network's leak gate. Builders return handles
// to every element so tests and benches can drive calls and inspect state.
package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// Latencies is the one-way delay profile for every interface class.
type Latencies struct {
	Um   time.Duration // air interface
	Abis time.Duration
	A    time.Duration
	SS7  time.Duration // MAP interfaces (B, C, D, E, Gr, Gc)
	Gb   time.Duration
	Gn   time.Duration
	Gi   time.Duration
	LAN  time.Duration // H.323 network links
	Intl time.Duration // international trunks
	Natl time.Duration // national trunks
}

// DefaultLatencies reflects period-plausible one-way delays.
func DefaultLatencies() Latencies {
	return Latencies{
		Um:   10 * time.Millisecond,
		Abis: 2 * time.Millisecond,
		A:    time.Millisecond,
		SS7:  5 * time.Millisecond,
		Gb:   2 * time.Millisecond,
		Gn:   time.Millisecond,
		Gi:   time.Millisecond,
		LAN:  time.Millisecond,
		Intl: 40 * time.Millisecond,
		Natl: 3 * time.Millisecond,
	}
}

// VGPRSOptions parameterises BuildVGPRS.
type VGPRSOptions struct {
	Seed int64
	// NumMS is the number of mobile stations (default 1).
	NumMS int
	// NumTerminals is the number of H.323 terminals (default 1).
	NumTerminals int
	// Latencies is the delay profile (default DefaultLatencies).
	Latencies *Latencies
	// DeactivateIdlePDP enables the §6 ablation at the VMSC.
	DeactivateIdlePDP bool
	// AuthDisabled skips GSM authentication and ciphering at the VLR —
	// the DESIGN.md §5 ablation isolating their registration-latency
	// contribution.
	AuthDisabled bool
	// Talk makes MSs and terminals generate speech while in calls.
	Talk bool
	// DTX gates MS uplink speech with the Brady talk-spurt model
	// (silence suppression).
	DTX bool
	// AutoAnswerDelay is how long called parties ring before answering.
	// Zero means 200 ms.
	AutoAnswerDelay time.Duration
	// TCHCapacity bounds the BSC's dedicated channels (0 = default 64).
	TCHCapacity int
	// SGSNMaxContexts bounds PDP contexts at the SGSN (0 = unlimited);
	// failure-injection tests use it to exhaust the voice context.
	SGSNMaxContexts int
	// NoTrace disables trace recording (for large load benches).
	NoTrace bool
	// GKMutate, when set, adjusts the gatekeeper configuration before
	// construction (e.g. to enforce a registration TTL).
	GKMutate func(*h323.GatekeeperConfig)
	// VMSCMutate, when set, adjusts the VMSC configuration before
	// construction (scenario extensions add handover targets and trunks).
	VMSCMutate func(*vmsc.Config)
	// TerminalMutate, when set, adjusts each terminal's configuration
	// before construction (the chaos harness arms RAS/Q.931
	// retransmission here).
	TerminalMutate func(*h323.TerminalConfig)
	// Sig, when set, overrides the signalling retransmission profile of
	// every network element at once. The chaos harness uses it to swap
	// the conservative defaults for a loss-tolerant profile.
	Sig *SigProfile
}

// SigProfile is a network-wide signalling retransmission profile: RTO and
// Retries drive the single-hop MAP/GTP/GMM planes, H323Retries the RAS and
// Q.931 planes whose PDUs tunnel across many links end-to-end.
type SigProfile struct {
	RTO         time.Duration
	Retries     int
	H323Retries int
}

// VGPRSNet is a fully wired vGPRS network (Fig 2(b)).
type VGPRSNet struct {
	// Audited is the leak gate over every stateful element built below
	// (and by the topologies that extend this one).
	Audited

	Env *sim.Env
	Rec *trace.Recorder
	Dir *h323.Directory

	HLR  *hlr.HLR
	VLR  *vlr.VLR
	VMSC *vmsc.VMSC
	SGSN SGSNHandle
	GGSN GGSNHandle
	GK   *h323.Gatekeeper

	Router    *ipnet.Router
	BSC       *gsm.BSC
	MSs       []*gsm.MS
	Terminals []*h323.Terminal

	// Subscribers lists the provisioned (IMSI, MSISDN) pairs, index-
	// aligned with MSs.
	Subscribers []Subscriber
}

// Subscriber pairs the identities of one provisioned MS.
type Subscriber struct {
	IMSI   gsmid.IMSI
	MSISDN gsmid.MSISDN
	Ki     [16]byte
}

// SubscriberN builds the n-th test subscriber's identities.
func SubscriberN(n int) Subscriber {
	return Subscriber{
		IMSI:   gsmid.IMSI(fmt.Sprintf("46692%010d", n+1)),
		MSISDN: gsmid.MSISDN(fmt.Sprintf("8869%08d", n+1)),
		Ki:     [16]byte{byte(n + 1), 0x5A},
	}
}

// TerminalAlias is the n-th H.323 terminal's dialable number (domestic, so
// default profiles may call it).
func TerminalAlias(n int) gsmid.MSISDN {
	return gsmid.MSISDN(fmt.Sprintf("8862%08d", n+1))
}

// gkAddr is the gatekeeper's IP on the H.323 LAN.
var gkAddr = ipnet.MustAddr("192.168.1.1")

// homeCell is VMSC-1's one cell, in location area 1.
var homeCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}

// BuildVGPRS wires the complete vGPRS network of Fig 2(b):
//
//	MS ~Um~ BTS ~Abis~ BSC ~A~ VMSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ [GK, terminals]
//	         VMSC ~B~ VLR ~D~ HLR;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR
func BuildVGPRS(opts VGPRSOptions) *VGPRSNet {
	n := &VGPRSNet{}
	buildVGPRS(n, newBuilder(opts.Seed, opts.Latencies, opts.Sig, &n.Audited), opts)
	return n
}

// buildVGPRS wires BuildVGPRS's network into n with b, which the topologies
// extending it go on using.
func buildVGPRS(n *VGPRSNet, b *builder, opts VGPRSOptions) {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.NumTerminals == 0 {
		opts.NumTerminals = 1
	}
	if opts.AutoAnswerDelay == 0 {
		opts.AutoAnswerDelay = 200 * time.Millisecond
	}
	n.Env, n.Dir = b.env, h323.NewDirectory()
	if !opts.NoTrace {
		n.Rec = b.record()
	}
	var static map[gsmid.IMSI]string
	if opts.DeactivateIdlePDP {
		static = make(map[gsmid.IMSI]string)
	}
	n.HLR = b.hlr("HLR")
	a := b.area(areaSpec{
		id: homeIDs, hlr: "HLR", cc: "886", msrn: "88690000", cell: homeCell,
		pool: "10.1.1.0", poolBits: 24, gk: gkAddr, dir: n.Dir, static: static, opts: opts,
	})
	n.VLR, n.VMSC, n.SGSN, n.GGSN, n.Router, n.GK, n.BSC = a.vlr, a.vmsc, a.sgsn, a.ggsn, a.gi, a.gk, a.bsc

	// Subscribers and their MSs.
	for i := 0; i < opts.NumMS; i++ {
		sub := SubscriberN(i)
		n.Subscribers = append(n.Subscribers, sub)
		provision(n.HLR, sub, 1)
		if opts.DeactivateIdlePDP {
			// The ablation needs static addresses for network-initiated
			// activation (GSM 03.60 requirement the paper cites).
			addr := ipnet.MustAddr(fmt.Sprintf("10.1.2.%d", i+1))
			static[sub.IMSI] = addr.String()
			n.GGSN.ProvisionStatic(addr, sub.IMSI)
			n.Router.AddPrefix(netip.PrefixFrom(addr, 32), "GGSN-1")
		}
		msID := sim.NodeID(fmt.Sprintf("MS-%d", i+1))
		ms := gsm.NewMS(gsm.MSConfig{
			ID: msID, IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
			BTS: "BTS-1", LAI: homeCell.LAI,
			Talk: opts.Talk, DTX: opts.DTX,
			AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
		})
		n.MSs = append(n.MSs, ms)
		b.add(ms)
		b.env.Connect(msID, "BTS-1", "Um", b.lat.Um)
	}

	// H.323 terminals.
	for i := 0; i < opts.NumTerminals; i++ {
		termID := sim.NodeID(fmt.Sprintf("TERM-%d", i+1))
		addr := ipnet.MustAddr(fmt.Sprintf("192.168.1.%d", 10+i))
		tcfg := h323.TerminalConfig{
			ID: termID, Alias: TerminalAlias(i), Addr: addr,
			Router: "GI", Gatekeeper: gkAddr, Dir: n.Dir,
			AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
			Talk:   opts.Talk,
			SigRTO: b.sig.RTO, SigRetries: b.sig.H323Retries,
		}
		if opts.TerminalMutate != nil {
			opts.TerminalMutate(&tcfg)
		}
		term := h323.NewTerminal(tcfg)
		n.Terminals = append(n.Terminals, term)
		n.Router.AddHost(addr, termID)
		n.Dir.Bind(addr, termID)
		b.add(term)
		b.env.Connect("GI", termID, "IP", b.lat.LAN)
	}

	// The VMSC learns MSISDNs from the VLR at registration, but knowing
	// them up front keeps the MS table complete for inspection.
	for _, sub := range n.Subscribers {
		n.VMSC.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
	}
}

// RegisterAll powers on every MS and every terminal and runs the simulation
// until registration quiesces. It returns an error naming any MS that did
// not reach the idle (registered) state.
func (n *VGPRSNet) RegisterAll() error {
	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	for i, ms := range n.MSs {
		if ms.State() != gsm.MSIdle {
			return fmt.Errorf("netsim: MS %d state %v after registration", i, ms.State())
		}
	}
	for i, term := range n.Terminals {
		if !term.Registered() {
			return fmt.Errorf("netsim: terminal %d not registered", i)
		}
	}
	return nil
}
