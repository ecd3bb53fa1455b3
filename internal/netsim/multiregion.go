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

// MultiRegionOptions parameterises BuildMultiRegion.
type MultiRegionOptions struct {
	Seed int64
	// Regions is the number of BSC/SGSN regions (default 2). Each region
	// is a full vGPRS stack — BTS, BSC, VMSC, VLR, SGSN, GGSN, router,
	// gatekeeper — sharing one national HLR.
	Regions int
	// MSPerRegion is the subscriber population per region (default 1).
	MSPerRegion int
	// Shards partitions the event loop (0 or 1 = sequential): the HLR and
	// SS7 plane stay on shard 0, region r runs on shard 1+(r mod shards-1).
	// Regions only talk to each other through the HLR's MAP interfaces, so
	// the SS7 latency is the cross-shard lookahead.
	Shards int
	// Latencies is the delay profile (default DefaultLatencies).
	Latencies *Latencies
	// NoTrace disables trace recording (for large load benches).
	NoTrace bool
}

// Region is one region's element handles.
type Region struct {
	VMSC *vmsc.VMSC
	VLR  *vlr.VLR
	SGSN SGSNHandle
	GGSN GGSNHandle
	GK   *h323.Gatekeeper
	BSC  *gsm.BSC
	MSs  []*gsm.MS
}

// MultiRegionNet is the paper's architecture scaled out: R independent
// BSC/SGSN regions homed on one HLR. It exists for engine-scaling work —
// the event population of different regions is nearly independent, so the
// sharded engine can process regions in parallel between HLR interactions.
type MultiRegionNet struct {
	// Audited is the leak gate over the HLR and every region's elements.
	Audited

	Env     *sim.Env
	Rec     *trace.Recorder
	HLR     *hlr.HLR
	Regions []Region

	// Subscribers is index-aligned with the global MS order: region 0's
	// MSs first, then region 1's, and so on.
	Subscribers []Subscriber
}

// BuildMultiRegion wires Regions copies of the Fig 2(b) region stack around
// a shared HLR:
//
//	MS ~Um~ BTS-Rr ~Abis~ BSC-Rr ~A~ VMSC-Rr ~Gb~ SGSN-Rr ~Gn~ GGSN-Rr ~Gi~ GI-Rr ~IP~ GK-Rr
//	VMSC-Rr ~B~ VLR-Rr ~D~ HLR;  SGSN-Rr ~Gr~ HLR;  GGSN-Rr ~Gc~ HLR
func BuildMultiRegion(opts MultiRegionOptions) *MultiRegionNet {
	if opts.Regions == 0 {
		opts.Regions = 2
	}
	if opts.MSPerRegion == 0 {
		opts.MSPerRegion = 1
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	lat := DefaultLatencies()
	if opts.Latencies != nil {
		lat = *opts.Latencies
	}

	env := sim.NewShardedEnv(opts.Seed, shards)
	n := &MultiRegionNet{Env: env}
	if !opts.NoTrace {
		n.Rec = trace.NewRecorder()
		env.SetTracer(n.Rec)
	}

	n.HLR = hlr.New(hlr.Config{ID: "HLR"})
	env.AddNode(n.HLR)
	n.audit("HLR", n.HLR)

	global := 0
	for r := 0; r < opts.Regions; r++ {
		id := func(role string) sim.NodeID {
			return sim.NodeID(fmt.Sprintf("%s-R%d", role, r+1))
		}
		dir := h323.NewDirectory()
		reg := Region{}

		reg.VLR = vlr.New(vlr.Config{
			ID: id("VLR"), HLR: "HLR", HomeCountryCode: "886",
			MSRNPrefix: fmt.Sprintf("8869%04d", r+1),
		})
		sgsn, ggsn := buildGPRSCore(gprsCoreConfig{
			SGSNID: id("SGSN"), GGSNID: id("GGSN"), HLR: "HLR", Gi: id("GI"),
			PoolPrefix: fmt.Sprintf("10.%d.1.0", r+1),
		})
		reg.SGSN, reg.GGSN = SGSNHandle{sgsn}, GGSNHandle{ggsn}

		router := ipnet.NewRouter(id("GI"))
		gkAddr := ipnet.MustAddr(fmt.Sprintf("192.168.%d.1", r+1))
		reg.GK = h323.NewGatekeeper(h323.GatekeeperConfig{
			ID: id("GK"), Addr: gkAddr, Router: id("GI"), Dir: dir,
		})
		router.AddHost(gkAddr, id("GK"))
		router.AddPrefix(mustPrefix(fmt.Sprintf("10.%d.1.0/24", r+1)), id("GGSN"))
		dir.Bind(gkAddr, id("GK"))

		lai := gsmid.LAI{MCC: "466", MNC: "92", LAC: uint16(r + 1)}
		reg.VMSC = vmsc.New(vmsc.Config{
			ID: id("VMSC"), VLR: id("VLR"), SGSN: id("SGSN"),
			Cell:       gsmid.CGI{LAI: lai, CI: 1},
			Gatekeeper: gkAddr, Dir: dir,
		})

		btsID := id("BTS")
		bts := gsm.NewBTS(gsm.BTSConfig{ID: btsID, BSC: id("BSC")})
		reg.BSC = gsm.NewBSC(gsm.BSCConfig{
			ID: id("BSC"), MSC: id("VMSC"), BTSs: []sim.NodeID{btsID},
		})

		for _, node := range []sim.Node{reg.VLR, sgsn, ggsn, router, reg.GK, reg.VMSC, bts, reg.BSC} {
			env.AddNode(node)
		}
		n.audit(string(id("VMSC")), reg.VMSC)
		n.audit(string(id("VLR")), reg.VLR)
		n.audit(string(id("SGSN")), sgsn)
		n.audit(string(id("GGSN")), ggsn)
		n.audit(string(id("GK")), reg.GK)
		n.audit(string(id("BSC")), reg.BSC)

		env.Connect(btsID, id("BSC"), "Abis", lat.Abis)
		env.Connect(id("BSC"), id("VMSC"), "A", lat.A)
		env.Connect(id("VMSC"), id("VLR"), "B", lat.SS7)
		env.Connect(id("VLR"), "HLR", "D", lat.SS7)
		env.Connect(id("VMSC"), id("SGSN"), "Gb", lat.Gb)
		env.Connect(id("SGSN"), id("GGSN"), "Gn", lat.Gn)
		env.Connect(id("SGSN"), "HLR", "Gr", lat.SS7)
		env.Connect(id("GGSN"), "HLR", "Gc", lat.SS7)
		env.Connect(id("GGSN"), id("GI"), "Gi", lat.Gi)
		env.Connect(id("GI"), id("GK"), "IP", lat.LAN)

		for i := 0; i < opts.MSPerRegion; i++ {
			sub := SubscriberN(global)
			global++
			n.Subscribers = append(n.Subscribers, sub)
			mustProvision(n.HLR, hlr.Subscriber{
				IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
				Profile: sigmap.SubscriberProfile{
					MSISDN: sub.MSISDN, InternationalAllowed: true, VoIPQoS: 1,
				},
			})
			msID := sim.NodeID(fmt.Sprintf("MS-R%d-%d", r+1, i+1))
			ms := gsm.NewMS(gsm.MSConfig{
				ID: msID, IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
				BTS: btsID, LAI: lai,
			})
			reg.MSs = append(reg.MSs, ms)
			env.AddNode(ms)
			env.Connect(msID, btsID, "Um", lat.Um)
			reg.VMSC.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
		}
		n.Regions = append(n.Regions, reg)
	}

	// Partition: HLR (and with it the shared SS7 plane) on shard 0, each
	// region wholly on one of the remaining shards. The only cross-shard
	// links are then the MAP interfaces D/Gr/Gc into the HLR, making the
	// SS7 latency the lookahead.
	if shards > 1 {
		for r := range n.Regions {
			shard := 1 + r%(shards-1)
			prefix := fmt.Sprintf("-R%d", r+1)
			for _, role := range []string{"VLR", "SGSN", "GGSN", "GI", "GK", "VMSC", "BTS", "BSC"} {
				env.AssignShard(sim.NodeID(role+prefix), shard)
			}
			for _, ms := range n.Regions[r].MSs {
				env.AssignShard(ms.ID(), shard)
			}
		}
	}
	return n
}

// RegisterAll powers on every MS in every region and runs until
// registration quiesces, returning an error naming any MS that did not
// reach the idle (registered) state.
func (n *MultiRegionNet) RegisterAll() error {
	for _, reg := range n.Regions {
		for _, ms := range reg.MSs {
			ms.PowerOn(n.Env)
		}
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	for r, reg := range n.Regions {
		for i, ms := range reg.MSs {
			if ms.State() != gsm.MSIdle {
				return fmt.Errorf("netsim: region %d MS %d state %v after registration", r, i, ms.State())
			}
		}
	}
	return nil
}
