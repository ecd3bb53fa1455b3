package netsim

import (
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// SGSNHandle and GGSNHandle re-export the GPRS core elements without
// leaking construction details into every test.
type SGSNHandle struct{ *gprs.SGSN }

// GGSNHandle wraps the GGSN.
type GGSNHandle struct{ *gprs.GGSN }

// builder wires every topology in this package. It owns the engine, the
// delay and signalling profiles and the topology's leak gate, and every node
// goes through add, so each stateful element is audited under its node ID.
// The order of add calls is the engine's AddNode order, which fixes each
// node's event-key context and random stream: it is part of every committed
// trace digest.
type builder struct {
	env  *sim.Env
	lat  Latencies
	sig  SigProfile
	gate *Audited
}

// newBuilder starts a topology on a fresh engine. It is the only place the
// delay profile (default DefaultLatencies) and the signalling profile
// (default: each element's own) are defaulted.
func newBuilder(seed int64, lat *Latencies, sig *SigProfile, gate *Audited) *builder {
	b := &builder{env: sim.NewEnv(seed), lat: DefaultLatencies(), gate: gate}
	if lat != nil {
		b.lat = *lat
	}
	if sig != nil {
		b.sig = *sig
	}
	return b
}

// record installs a trace recorder on the engine and returns it.
func (b *builder) record() *trace.Recorder {
	rec := trace.NewRecorder()
	b.env.SetTracer(rec)
	return rec
}

// add registers nodes with the engine, in order, and enrols each one that
// reports transient state or transaction tables in the leak gate.
func (b *builder) add(nodes ...sim.Node) {
	for _, node := range nodes {
		b.env.AddNode(node)
		b.gate.audit(string(node.ID()), node)
	}
}

// trunks creates an ISUP trunk group and enrols it in the leak gate.
func (b *builder) trunks(name string, class isup.TrunkClass, size int) *isup.TrunkGroup {
	g := isup.NewTrunkGroup(name, class, size)
	b.gate.audit(name, g)
	return g
}

// hlr adds a home location register.
func (b *builder) hlr(id sim.NodeID) *hlr.HLR {
	h := hlr.New(hlr.Config{ID: id, SigRTO: b.sig.RTO, SigRetries: b.sig.Retries})
	b.add(h)
	return h
}

// bss adds a one-cell radio subsystem — BTS bts under BSC bsc, homed on the
// switch sw over A — with its Abis and A links. tch bounds the BSC's
// dedicated channels (0 = its default).
func (b *builder) bss(bts, bsc, sw sim.NodeID, tch int) *gsm.BSC {
	c := gsm.NewBSC(gsm.BSCConfig{ID: bsc, MSC: sw, BTSs: []sim.NodeID{bts}, TCHCapacity: tch})
	b.add(gsm.NewBTS(gsm.BTSConfig{ID: bts, BSC: bsc}), c)
	b.env.Connect(bts, bsc, "Abis", b.lat.Abis)
	b.env.Connect(bsc, sw, "A", b.lat.A)
	return c
}

// provision enters a subscriber in an HLR with international calls allowed
// and VoIP QoS class qos (1 for the vGPRS subscribers, 0 for the Fig 7/8
// roamer's plain GSM profile).
func provision(h *hlr.HLR, sub Subscriber, qos uint8) {
	if err := h.Provision(hlr.Subscriber{
		IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
		Profile: sigmap.SubscriberProfile{MSISDN: sub.MSISDN, InternationalAllowed: true, VoIPQoS: qos},
	}); err != nil {
		panic(err)
	}
}

// areaIDs names one service area's nodes.
type areaIDs struct{ vlr, vmsc, sgsn, ggsn, gi, gk, bts, bsc sim.NodeID }

// nodeIDs names an area's nodes once: suffix ends the VLR, VMSC, SGSN,
// GGSN, BTS and BSC IDs ("-1" makes VMSC-1), ipSuffix the GI router's and
// the gatekeeper's.
func nodeIDs(suffix, ipSuffix string) areaIDs {
	return areaIDs{
		vlr: sim.NodeID("VLR" + suffix), vmsc: sim.NodeID("VMSC" + suffix),
		sgsn: sim.NodeID("SGSN" + suffix), ggsn: sim.NodeID("GGSN" + suffix),
		gi: sim.NodeID("GI" + ipSuffix), gk: sim.NodeID("GK" + ipSuffix),
		bts: sim.NodeID("BTS" + suffix), bsc: sim.NodeID("BSC" + suffix),
	}
}

// homeIDs names the home network's area (VLR-1 … BSC-1, GI, GK) once for
// the process, so a BuildVGPRS world allocates no ID strings.
var homeIDs = nodeIDs("-1", "")

// areaSpec is what differs between the service areas the topologies build.
type areaSpec struct {
	id  areaIDs // the area's node IDs (nodeIDs)
	hlr sim.NodeID
	// intl puts D, Gr and Gc on international links (a roamer's home HLR).
	intl bool
	// cc and msrn are the VLR's home country code and MSRN prefix.
	cc, msrn string
	cell     gsmid.CGI
	// pool is the GGSN's address-pool base, routed to it on the GI router
	// as pool/poolBits; poolSize 0 is the GGSN's default.
	pool               string
	poolSize, poolBits int
	gk                 netip.Addr
	dir                *h323.Directory
	// ggsn, when set, is another area's GGSN this one uses instead of
	// building its own GGSN, GI router and gatekeeper.
	ggsn GGSNHandle
	// edge, when set, stands in for the radio subsystem: it is linked to
	// the VMSC on A and to the VLR on B.
	edge sim.Node
	// static is the VMSC's table of static PDP addresses (idle-PDP
	// ablation).
	static map[gsmid.IMSI]string
	// opts carries the caller's per-node settings.
	opts VGPRSOptions
}

// area is one service area's elements. gi and gk are nil when the area
// shares another's GGSN, bsc is nil behind an edge node.
type area struct {
	vlr  *vlr.VLR
	vmsc *vmsc.VMSC
	sgsn SGSNHandle
	ggsn GGSNHandle
	gi   *ipnet.Router
	gk   *h323.Gatekeeper
	bsc  *gsm.BSC
}

// area builds one Fig 2(b) service area,
//
//	BTS ~Abis~ BSC ~A~ VMSC ~Gb~ SGSN ~Gn~ GGSN ~Gi~ GI ~IP~ GK
//	VMSC ~B~ VLR ~D~ HLR;  SGSN ~Gr~ HLR;  GGSN ~Gc~ HLR
//
// adding VLR, VMSC, SGSN, GGSN, GI, GK, BTS and BSC in that order.
func (b *builder) area(s areaSpec) area {
	o, sig, id := s.opts, b.sig, s.id
	hlrLat := b.lat.SS7
	if s.intl {
		hlrLat = b.lat.Intl
	}
	a := area{ggsn: s.ggsn}
	if a.ggsn.GGSN != nil {
		id.ggsn = a.ggsn.ID()
	}
	a.vlr = vlr.New(vlr.Config{
		ID: id.vlr, HLR: s.hlr, HomeCountryCode: s.cc, MSRNPrefix: s.msrn,
		AuthDisabled: o.AuthDisabled, SigRTO: sig.RTO, SigRetries: sig.Retries,
	})
	vcfg := vmsc.Config{
		ID: id.vmsc, VLR: id.vlr, SGSN: id.sgsn, Cell: s.cell, Gatekeeper: s.gk, Dir: s.dir,
		DeactivateIdlePDP: o.DeactivateIdlePDP, StaticAddrs: s.static,
		SigRTO: sig.RTO, SigRetries: sig.Retries, H323Retries: sig.H323Retries,
	}
	if o.VMSCMutate != nil {
		o.VMSCMutate(&vcfg)
	}
	a.vmsc = vmsc.New(vcfg)
	a.sgsn = SGSNHandle{gprs.NewSGSN(gprs.SGSNConfig{
		ID: id.sgsn, GGSN: id.ggsn, HLR: s.hlr, MaxContexts: o.SGSNMaxContexts,
		SigRTO: sig.RTO, SigRetries: sig.Retries,
	})}
	b.add(a.vlr, a.vmsc, a.sgsn.SGSN)
	b.env.Connect(id.vmsc, id.vlr, "B", b.lat.SS7)
	b.env.Connect(id.vlr, s.hlr, "D", hlrLat)
	b.env.Connect(id.vmsc, id.sgsn, "Gb", b.lat.Gb)
	b.env.Connect(id.sgsn, s.hlr, "Gr", hlrLat)

	if a.ggsn.GGSN == nil {
		a.ggsn = GGSNHandle{gprs.NewGGSN(gprs.GGSNConfig{
			ID: id.ggsn, PoolPrefix: s.pool, PoolSize: s.poolSize, Gi: id.gi, HLR: s.hlr,
			NetworkInitiatedActivation: o.DeactivateIdlePDP,
			SigRTO:                     sig.RTO, SigRetries: sig.Retries,
		})}
		a.gi = ipnet.NewRouter(id.gi)
		gkCfg := h323.GatekeeperConfig{ID: id.gk, Addr: s.gk, Router: id.gi, Dir: s.dir}
		if o.GKMutate != nil {
			o.GKMutate(&gkCfg)
		}
		a.gk = h323.NewGatekeeper(gkCfg)
		a.gi.AddHost(s.gk, id.gk)
		a.gi.AddPrefix(netip.PrefixFrom(netip.MustParseAddr(s.pool), s.poolBits), id.ggsn)
		s.dir.Bind(s.gk, id.gk)
		b.add(a.ggsn.GGSN, a.gi, a.gk)
		b.env.Connect(id.ggsn, s.hlr, "Gc", hlrLat)
		b.env.Connect(id.ggsn, id.gi, "Gi", b.lat.Gi)
		b.env.Connect(id.gi, id.gk, "IP", b.lat.LAN)
	}
	b.env.Connect(id.sgsn, id.ggsn, "Gn", b.lat.Gn)

	if s.edge != nil {
		b.add(s.edge)
		b.env.Connect(s.edge.ID(), id.vmsc, "A", b.lat.A)
		b.env.Connect(s.edge.ID(), id.vlr, "B", b.lat.SS7)
	} else {
		a.bsc = b.bss(id.bts, id.bsc, id.vmsc, o.TCHCapacity)
	}
	return a
}

// CoreNet is the scale topology: one Fig 2(b) service area — HLR, VLR,
// VMSC, SGSN, GGSN, GI router and gatekeeper — whose radio side is a single
// edge node, so every per-subscriber byte it holds belongs to a network
// element.
type CoreNet struct {
	// Audited is the leak gate over the core's elements.
	Audited

	Env  *sim.Env
	Dir  *h323.Directory
	HLR  *hlr.HLR
	VLR  *vlr.VLR
	VMSC *vmsc.VMSC
	SGSN SGSNHandle
	GGSN GGSNHandle
	GK   *h323.Gatekeeper
}

// BuildCore wires the core for subs subscribers: an address pool sized to
// the population on a /8 (a million dynamic PDP addresses count up without
// leaving the routed prefix), 50 µs links, authentication off and no trace.
// edge is linked to VMSC-1 on A (it plays the BSC and every MS) and to
// VLR-1 on B (it plays the HLR's cancel role).
func BuildCore(seed int64, subs int, edge sim.Node) *CoreNet {
	const d = 50 * time.Microsecond
	n := &CoreNet{Dir: h323.NewDirectory()}
	b := newBuilder(seed, &Latencies{A: d, SS7: d, Gb: d, Gn: d, Gi: d, LAN: d}, nil, &n.Audited)
	n.Env, n.HLR = b.env, b.hlr("HLR")
	a := b.area(areaSpec{
		id: homeIDs, hlr: "HLR", cc: "886", msrn: "88690000", cell: homeCell,
		pool: "10.0.0.0", poolSize: subs + 2, poolBits: 8, gk: gkAddr, dir: n.Dir,
		edge: edge, opts: VGPRSOptions{AuthDisabled: true},
	})
	n.VLR, n.VMSC, n.SGSN, n.GGSN, n.GK = a.vlr, a.vmsc, a.sgsn, a.ggsn, a.gk
	return n
}
