package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/tr23923"
	"vgprs/internal/trace"
)

// TR23923Options parameterises BuildTR23923.
type TR23923Options struct {
	Seed  int64
	NumMS int
	// Latencies is the delay profile (default DefaultLatencies).
	Latencies *Latencies
	// PSJitter is the extra uniform delay on the packet-switched air
	// interface (shared-PDCH contention). Zero disables it; the C3
	// experiment sweeps it.
	PSJitter time.Duration
	// KeepPDPActive is the ablation that holds contexts while idle.
	KeepPDPActive bool
	Talk          bool
	// AutoAnswer is how long called parties ring before answering. Zero
	// means 200 ms.
	AutoAnswer time.Duration
	NoTrace    bool
}

// TR23923Net is the comparison baseline of paper §6: H.323-terminal MSs over
// a packet-switched radio path, a MAP-capable gatekeeper, one H.323 terminal,
// and the same GPRS core as the vGPRS build.
type TR23923Net struct {
	// Audited is the leak gate over every stateful element built below.
	Audited

	Env *sim.Env
	Rec *trace.Recorder
	Dir *h323.Directory

	HLR      *hlr.HLR
	SGSN     *gprs.SGSN
	GGSN     *gprs.GGSN
	GK       *h323.Gatekeeper
	Router   *ipnet.Router
	MSs      []*tr23923.MS
	Terminal *h323.Terminal

	Subscribers []Subscriber
}

// trGKAddr is the TR 23.923 gatekeeper's IP on the H.323 LAN.
var trGKAddr = ipnet.MustAddr("192.168.3.1")

// BuildTR23923 wires the TR 23.923 comparison network:
//
//	MS ~Um~ BTS ~Abis~ BSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ GI ~IP~ [GK, TERM-1]
//	BSC ~A~ CS-SINK;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR;  GK ~MAP~ HLR
//
// adding HLR, SGSN, GGSN, GI, GK, BTS, BSC and CS-SINK, then the MSs, then
// the terminal. The Um links carry PSJitter.
func BuildTR23923(opts TR23923Options) *TR23923Net {
	if opts.NumMS == 0 {
		opts.NumMS = 1
	}
	if opts.AutoAnswer == 0 {
		opts.AutoAnswer = 200 * time.Millisecond
	}
	n := &TR23923Net{Dir: h323.NewDirectory()}
	b := newBuilder(opts.Seed, opts.Latencies, nil, &n.Audited)
	n.Env = b.env
	if !opts.NoTrace {
		n.Rec = b.record()
	}

	n.HLR = b.hlr("HLR")
	n.SGSN = gprs.NewSGSN(gprs.SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1", HLR: "HLR"})
	n.GGSN = gprs.NewGGSN(gprs.GGSNConfig{
		ID: "GGSN-1", PoolPrefix: "10.3.9.0", Gi: "GI", HLR: "HLR",
		NetworkInitiatedActivation: true,
	})
	n.Router = ipnet.NewRouter("GI")
	// The TR 23.923 gatekeeper is NOT a standard H.323 element: it
	// resolves and memorizes IMSIs over GSM MAP (paper §6).
	n.GK = h323.NewGatekeeper(h323.GatekeeperConfig{
		ID: "GK", Addr: trGKAddr, Router: "GI", Dir: n.Dir,
		HLR: "HLR", RequireIMSI: true, MobilePrefixes: []string{"8869"},
	})
	n.Router.AddHost(trGKAddr, "GK")
	n.Router.AddPrefix(netip.MustParsePrefix("10.3.1.0/24"), "GGSN-1")
	n.Dir.Bind(trGKAddr, "GK")
	b.add(n.SGSN, n.GGSN, n.Router, n.GK,
		gsm.NewBTS(gsm.BTSConfig{ID: "BTS-1", BSC: "BSC-1"}),
		gsm.NewBSC(gsm.BSCConfig{
			ID: "BSC-1", MSC: "CS-SINK", SGSN: "SGSN-1", BTSs: []sim.NodeID{"BTS-1"},
		}),
		&csSink{})
	b.env.Connect("BTS-1", "BSC-1", "Abis", b.lat.Abis)
	b.env.Connect("BSC-1", "CS-SINK", "A", b.lat.A)
	b.env.Connect("BSC-1", "SGSN-1", "Gb", b.lat.Gb)
	b.env.Connect("SGSN-1", "GGSN-1", "Gn", b.lat.Gn)
	b.env.Connect("SGSN-1", "HLR", "Gr", b.lat.SS7)
	b.env.Connect("GGSN-1", "HLR", "Gc", b.lat.SS7)
	b.env.Connect("GK", "HLR", "MAP", b.lat.SS7) // the non-standard interface
	b.env.Connect("GGSN-1", "GI", "Gi", b.lat.Gi)
	b.env.Connect("GI", "GK", "IP", b.lat.LAN)

	for i := 0; i < opts.NumMS; i++ {
		sub := SubscriberN(i)
		n.Subscribers = append(n.Subscribers, sub)
		// Terminating calls need network-initiated activation, hence a
		// provisioned static PDP address per MS.
		static := fmt.Sprintf("10.3.1.%d", i+1)
		if err := n.HLR.Provision(hlr.Subscriber{
			IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
			Profile:          sigmap.SubscriberProfile{MSISDN: sub.MSISDN},
			StaticPDPAddress: static,
		}); err != nil {
			panic(err)
		}
		n.GGSN.ProvisionStatic(ipnet.MustAddr(static), sub.IMSI)

		msID := sim.NodeID(fmt.Sprintf("MS-%d", i+1))
		ms := tr23923.NewMS(tr23923.MSConfig{
			ID: msID, IMSI: sub.IMSI, MSISDN: sub.MSISDN,
			BTS: "BTS-1", Gatekeeper: trGKAddr, StaticAddr: static, Dir: n.Dir,
			KeepPDPActive: opts.KeepPDPActive,
			Talk:          opts.Talk, AutoAnswer: true, AnswerDelay: opts.AutoAnswer,
		})
		n.MSs = append(n.MSs, ms)
		b.add(ms)
		// The packet-switched radio leg carries the contention jitter.
		ab, ba := b.env.Connect(msID, "BTS-1", "Um", b.lat.Um)
		ab.Jitter = opts.PSJitter
		ba.Jitter = opts.PSJitter
	}

	termAddr := ipnet.MustAddr("192.168.3.10")
	n.Terminal = h323.NewTerminal(h323.TerminalConfig{
		ID: "TERM-1", Alias: TerminalAlias(0), Addr: termAddr,
		Router: "GI", Gatekeeper: trGKAddr, Dir: n.Dir,
		AutoAnswer: true, AnswerDelay: opts.AutoAnswer, Talk: opts.Talk,
	})
	n.Router.AddHost(termAddr, "TERM-1")
	n.Dir.Bind(termAddr, "TERM-1")
	b.add(n.Terminal)
	b.env.Connect("GI", "TERM-1", "IP", b.lat.LAN)
	return n
}

// RegisterAll registers the terminal and every MS and runs until
// registration quiesces.
func (n *TR23923Net) RegisterAll() error {
	n.Terminal.Register(n.Env)
	for _, ms := range n.MSs {
		if err := ms.Register(n.Env); err != nil {
			return err
		}
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	for i, ms := range n.MSs {
		if !ms.Registered() {
			return fmt.Errorf("netsim: TR 23.923 MS %d not registered", i)
		}
	}
	return nil
}

// csSink stands in for the MSC on the BSC's A interface. TR 23.923 carries
// nothing circuit-switched, so every message it receives is a modelling bug,
// and the leak gate reports it.
type csSink struct{ got int }

func (s *csSink) ID() sim.NodeID { return "CS-SINK" }

func (s *csSink) Receive(*sim.Env, sim.NodeID, string, sim.Message) { s.got++ }

// Audit implements Auditor.
func (s *csSink) Audit(report func(kind string, n int)) { report("stray CS messages", s.got) }
