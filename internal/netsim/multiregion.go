package netsim

import (
	"fmt"
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

// MultiRegionOptions parameterises BuildMultiRegion.
type MultiRegionOptions struct {
	Seed int64
	// Regions is the number of BSC/SGSN regions (default 2). Each region
	// is a full vGPRS stack — BTS, BSC, VMSC, VLR, SGSN, GGSN, router,
	// gatekeeper — sharing one national HLR.
	Regions int
	// MSPerRegion is the subscriber population per region (default 1).
	MSPerRegion int
	// Deprecated: Shards is accepted and ignored; there is one event loop.
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
// BSC/SGSN regions homed on one HLR, so registration load from every region
// converges on one HLR's MAP interfaces.
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
	n := &MultiRegionNet{}
	b := newBuilder(opts.Seed, opts.Latencies, nil, &n.Audited)
	n.Env = b.env
	if !opts.NoTrace {
		n.Rec = b.record()
	}
	n.HLR = b.hlr("HLR")

	global := 0
	for r := 0; r < opts.Regions; r++ {
		suffix := fmt.Sprintf("-R%d", r+1)
		id := nodeIDs(suffix, suffix)
		cell := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: uint16(r + 1)}, CI: 1}
		a := b.area(areaSpec{
			id: id, hlr: "HLR", cc: "886",
			msrn: fmt.Sprintf("8869%04d", r+1), cell: cell,
			pool: fmt.Sprintf("10.%d.1.0", r+1), poolBits: 24,
			gk: ipnet.MustAddr(fmt.Sprintf("192.168.%d.1", r+1)), dir: h323.NewDirectory(),
		})
		reg := Region{VMSC: a.vmsc, VLR: a.vlr, SGSN: a.sgsn, GGSN: a.ggsn, GK: a.gk, BSC: a.bsc}
		for i := 0; i < opts.MSPerRegion; i++ {
			sub := SubscriberN(global)
			global++
			n.Subscribers = append(n.Subscribers, sub)
			provision(n.HLR, sub, 1)
			msID := sim.NodeID(fmt.Sprintf("MS-R%d-%d", r+1, i+1))
			ms := gsm.NewMS(gsm.MSConfig{
				ID: msID, IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
				BTS: id.bts, LAI: cell.LAI,
			})
			reg.MSs = append(reg.MSs, ms)
			b.add(ms)
			b.env.Connect(msID, id.bts, "Um", b.lat.Um)
			reg.VMSC.ProvisionMSISDN(sub.IMSI, sub.MSISDN)
		}
		n.Regions = append(n.Regions, reg)
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
