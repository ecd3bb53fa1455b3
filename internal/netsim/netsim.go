// Package netsim assembles complete simulated networks for the experiments:
// the vGPRS architecture of paper Fig 2(b) (BuildVGPRS), the international
// roaming configurations of Figs 7-8 (BuildRoamingGSM, BuildRoamingVGPRS),
// the inter-system handoff configurations of Fig 9 (BuildHandoff to a
// legacy MSC, BuildHandoffVMSC between two VMSCs), and — in the tr23923
// package, on the same substrate — the TR 23.923 baseline. Builders return
// handles to every element so tests and benches can drive calls and inspect
// state.
package netsim

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
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
	// Shards partitions the event loop across goroutines (0 or 1 =
	// sequential). The default partition keeps the SS7/GPRS core and the
	// H.323 plane on shard 0 and moves the radio access network (BTS, BSC,
	// MSs) to shard 1; the A interface is then the only cross-shard link
	// and its latency the synchronization lookahead. Shard counts above 2
	// leave the extra shards empty on this single-region topology — results
	// are identical at any count, which is exactly what the determinism
	// tests lock in. Multi-region scaling lives in BuildMultiRegion.
	Shards int
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

// terminalAddr is the n-th terminal's IP.
func terminalAddr(n int) string { return fmt.Sprintf("192.168.1.%d", 10+n) }

// BuildVGPRS wires the complete vGPRS network of Fig 2(b):
//
//	MS ~Um~ BTS ~Abis~ BSC ~A~ VMSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ [GK, terminals]
//	         VMSC ~B~ VLR ~D~ HLR;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR
func BuildVGPRS(opts VGPRSOptions) *VGPRSNet {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.NumTerminals == 0 {
		opts.NumTerminals = 1
	}
	if opts.AutoAnswerDelay == 0 {
		opts.AutoAnswerDelay = 200 * time.Millisecond
	}
	lat := DefaultLatencies()
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}

	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	env := sim.NewShardedEnv(opts.Seed, shards)
	var rec *trace.Recorder
	if !opts.NoTrace {
		rec = trace.NewRecorder()
		env.SetTracer(rec)
	}
	dir := h323.NewDirectory()

	n := &VGPRSNet{Env: env, Rec: rec, Dir: dir}

	var sig SigProfile
	if opts.Sig != nil {
		sig = *opts.Sig
	}

	// GSM core databases.
	n.HLR = hlr.New(hlr.Config{ID: "HLR", SigRTO: sig.RTO, SigRetries: sig.Retries})
	n.VLR = vlr.New(vlr.Config{
		ID: "VLR-1", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690000",
		AuthDisabled: opts.AuthDisabled,
		SigRTO:       sig.RTO, SigRetries: sig.Retries,
	})

	// GPRS core.
	sgsn, ggsn := buildGPRSCore(gprsCoreConfig{
		SGSNID: "SGSN-1", GGSNID: "GGSN-1", HLR: "HLR", Gi: "GI",
		PoolPrefix:  "10.1.1.0",
		NetworkInit: opts.DeactivateIdlePDP,
		MaxContexts: opts.SGSNMaxContexts,
		SigRTO:      sig.RTO, SigRetries: sig.Retries,
	})
	n.SGSN = SGSNHandle{sgsn}
	n.GGSN = GGSNHandle{ggsn}

	// H.323 network.
	n.Router = ipnet.NewRouter("GI")
	gkCfg := h323.GatekeeperConfig{ID: "GK", Addr: gkAddr, Router: "GI", Dir: dir}
	if opts.GKMutate != nil {
		opts.GKMutate(&gkCfg)
	}
	n.GK = h323.NewGatekeeper(gkCfg)
	n.Router.AddHost(gkAddr, "GK")
	n.Router.AddPrefix(mustPrefix("10.1.1.0/24"), "GGSN-1")
	dir.Bind(gkAddr, "GK")

	// The VMSC — the paper's new element, replacing the MSC.
	staticAddrs := make(map[gsmid.IMSI]string)
	vcfg := vmsc.Config{
		ID: "VMSC-1", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell:       gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1},
		Gatekeeper: gkAddr, Dir: dir,
		DeactivateIdlePDP: opts.DeactivateIdlePDP,
		StaticAddrs:       staticAddrs,
		SigRTO:            sig.RTO,
		SigRetries:        sig.Retries,
		H323Retries:       sig.H323Retries,
	}
	if opts.VMSCMutate != nil {
		opts.VMSCMutate(&vcfg)
	}
	n.VMSC = vmsc.New(vcfg)

	// Radio access.
	bts := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-1", BSC: "BSC-1"})
	n.BSC = gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-1", MSC: "VMSC-1", BTSs: []sim.NodeID{"BTS-1"},
		TCHCapacity: opts.TCHCapacity,
	})

	for _, node := range []sim.Node{n.HLR, n.VLR, n.VMSC, sgsn, ggsn, n.Router, n.GK, bts, n.BSC} {
		env.AddNode(node)
	}
	n.audit("VMSC-1", n.VMSC)
	n.audit("VLR-1", n.VLR)
	n.audit("HLR", n.HLR)
	n.audit("SGSN-1", sgsn)
	n.audit("GGSN-1", ggsn)
	n.audit("GK", n.GK)
	n.audit("BSC-1", n.BSC)

	env.Connect("BTS-1", "BSC-1", "Abis", lat.Abis)
	env.Connect("BSC-1", "VMSC-1", "A", lat.A)
	env.Connect("VMSC-1", "VLR-1", "B", lat.SS7)
	env.Connect("VLR-1", "HLR", "D", lat.SS7)
	env.Connect("VMSC-1", "SGSN-1", "Gb", lat.Gb)
	env.Connect("SGSN-1", "GGSN-1", "Gn", lat.Gn)
	env.Connect("SGSN-1", "HLR", "Gr", lat.SS7)
	env.Connect("GGSN-1", "HLR", "Gc", lat.SS7)
	env.Connect("GGSN-1", "GI", "Gi", lat.Gi)
	env.Connect("GI", "GK", "IP", lat.LAN)

	// Subscribers and their MSs.
	for i := 0; i < opts.NumMS; i++ {
		sub := SubscriberN(i)
		n.Subscribers = append(n.Subscribers, sub)
		mustProvision(n.HLR, hlr.Subscriber{
			IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
			Profile: sigmap.SubscriberProfile{
				MSISDN: sub.MSISDN, InternationalAllowed: true, VoIPQoS: 1,
			},
		})
		if opts.DeactivateIdlePDP {
			// The ablation needs static addresses for network-initiated
			// activation (GSM 03.60 requirement the paper cites).
			addr := ipnet.MustAddr(fmt.Sprintf("10.1.2.%d", i+1))
			staticAddrs[sub.IMSI] = addr.String()
			ggsn.ProvisionStatic(addr, sub.IMSI)
			n.Router.AddPrefix(mustPrefix(addr.String()+"/32"), "GGSN-1")
		}
		msID := sim.NodeID(fmt.Sprintf("MS-%d", i+1))
		ms := gsm.NewMS(gsm.MSConfig{
			ID: msID, IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
			BTS:  "BTS-1",
			LAI:  gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
			Talk: opts.Talk, DTX: opts.DTX,
			AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
		})
		n.MSs = append(n.MSs, ms)
		env.AddNode(ms)
		env.Connect(msID, "BTS-1", "Um", lat.Um)
	}

	// H.323 terminals.
	for i := 0; i < opts.NumTerminals; i++ {
		termID := sim.NodeID(fmt.Sprintf("TERM-%d", i+1))
		addr := ipnet.MustAddr(terminalAddr(i))
		tcfg := h323.TerminalConfig{
			ID: termID, Alias: TerminalAlias(i), Addr: addr,
			Router: "GI", Gatekeeper: gkAddr, Dir: dir,
			AutoAnswer: true, AnswerDelay: opts.AutoAnswerDelay,
			Talk:   opts.Talk,
			SigRTO: sig.RTO, SigRetries: sig.H323Retries,
		}
		if opts.TerminalMutate != nil {
			opts.TerminalMutate(&tcfg)
		}
		term := h323.NewTerminal(tcfg)
		n.Terminals = append(n.Terminals, term)
		n.Router.AddHost(addr, termID)
		dir.Bind(addr, termID)
		env.AddNode(term)
		n.audit(string(termID), term)
		env.Connect("GI", termID, "IP", lat.LAN)
	}

	// The VMSC learns MSISDNs from the VLR at registration, but knowing
	// them up front keeps the MS table complete for inspection.
	for _, sub := range n.Subscribers {
		n.VMSC.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
	}

	// Default shard partition: radio access on shard 1, everything else
	// (SS7 core, GPRS core, H.323 plane) on shard 0. Assignment happens
	// last, while nothing is scheduled yet.
	if shards > 1 {
		env.AssignShard("BTS-1", 1)
		env.AssignShard("BSC-1", 1)
		for _, ms := range n.MSs {
			env.AssignShard(ms.ID(), 1)
		}
	}
	return n
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

func mustProvision(h *hlr.HLR, s hlr.Subscriber) {
	if err := h.Provision(s); err != nil {
		panic(err)
	}
}
