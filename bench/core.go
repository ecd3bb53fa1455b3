package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// coreNet is the full Fig 2(b) core — real VMSC, VLR, HLR, SGSN, GGSN, GI
// router and gatekeeper on netsim.DefaultLatencies — with the radio edge
// replaced by one stateless driver node, so populations far above the
// 64-channel BSC default fit in one process and the measured heap belongs to
// the network elements alone.
type coreNet struct {
	env    *sim.Env
	dir    *h323.Directory
	hlr    *hlr.HLR
	vlr    *vlr.VLR
	vmsc   *vmsc.VMSC
	sgsn   *gprs.SGSN
	ggsn   *gprs.GGSN
	gk     *h323.Gatekeeper
	driver *radioDriver

	subs    []coreSub
	dirBase int
}

// coreSub is one generated subscriber. The identities and the MS node name
// are built once, in set-up, so the timed regions do no string formatting.
type coreSub struct {
	imsi   gsmid.IMSI
	msisdn gsmid.MSISDN
	ms     sim.NodeID
}

var (
	coreGKAddr = ipnet.MustAddr("192.168.1.1")
	coreCell   = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}
)

// radioDriver plays the BSC and every MS at once. It keeps no per-subscriber
// state: every reply echoes the MS and call reference the VMSC addressed.
// Every operation of a wave is injected at the same simulated instant, so a
// completion's simulated latency is Now minus the wave start.
type radioDriver struct {
	vmsc sim.NodeID
	hold time.Duration

	waveStart time.Duration
	regLat    *metrics.Series // one sample per accepted registration
	callLat   *metrics.Series // one sample per established call

	accepts, rejects      int
	established, releases int
	cancelAcks            int
}

func (d *radioDriver) ID() sim.NodeID { return "LOAD" }

func (d *radioDriver) Receive(env *sim.Env, _ sim.NodeID, _ string, msg sim.Message) {
	switch t := msg.(type) {
	case gsm.LocationUpdateAccept:
		d.accepts++
		d.regLat.Add(env.Now() - d.waveStart)
	case gsm.LocationUpdateReject:
		d.rejects++
	case gsm.Paging:
		// Fig 6 step 4.4: the paged MS answers at once.
		env.Send(d.ID(), d.vmsc, gsm.PagingResponse{Leg: gsm.LegA, MS: t.MS, Identity: t.Identity})
	case gsm.Setup:
		// MT Setup down the radio path (step 4.5): ring, then answer.
		env.Send(d.ID(), d.vmsc, gsm.Alerting{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		env.Send(d.ID(), d.vmsc, gsm.Connect{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
	case gsm.Connect:
		// The MO leg answered end to end. Hold long enough in simulated
		// time for both voice-PDP activations to land, then hang up.
		d.established++
		d.callLat.Add(env.Now() - d.waveStart)
		ms, ref := t.MS, t.CallRef
		env.After(d.hold, func() {
			env.Send(d.ID(), d.vmsc, gsm.Disconnect{Leg: gsm.LegA, MS: ms, CallRef: ref})
		})
	case gsm.Release:
		d.releases++
	case sigmap.CancelLocationAck:
		d.cancelAcks++
	}
}

// buildCore wires the topology and generates n subscribers from the seed:
// the seed picks the IMSI/MSISDN block and the order subscribers are served
// in, so store hash patterns differ between seeds and repeat within one.
func buildCore(seed int64, n int) (*coreNet, error) {
	lat := netsim.DefaultLatencies()
	c := &coreNet{
		env: sim.NewEnv(seed),
		dir: h323.NewDirectory(),
		hlr: hlr.New(hlr.Config{ID: "HLR"}),
		vlr: vlr.New(vlr.Config{
			ID: "VLR-1", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690000",
			// The stateless driver holds no SIM keys.
			AuthDisabled: true,
		}),
		sgsn: gprs.NewSGSN(gprs.SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1", HLR: "HLR"}),
		// A /8 pool so any population counts up inside the routed prefix.
		ggsn: gprs.NewGGSN(gprs.GGSNConfig{
			ID: "GGSN-1", PoolPrefix: "10.0.0.0", PoolSize: n + 2, Gi: "GI", HLR: "HLR",
		}),
		driver: &radioDriver{
			vmsc: "VMSC-1", hold: time.Second,
			regLat: metrics.NewSeries("registration"), callLat: metrics.NewSeries("call set-up"),
		},
	}
	router := ipnet.NewRouter("GI")
	c.gk = h323.NewGatekeeper(h323.GatekeeperConfig{ID: "GK", Addr: coreGKAddr, Router: "GI", Dir: c.dir})
	router.AddHost(coreGKAddr, "GK")
	router.AddPrefix(netip.MustParsePrefix("10.0.0.0/8"), "GGSN-1")
	c.dir.Bind(coreGKAddr, "GK")
	c.vmsc = vmsc.New(vmsc.Config{
		ID: "VMSC-1", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell: coreCell, Gatekeeper: coreGKAddr, Dir: c.dir,
	})
	for _, node := range []sim.Node{c.hlr, c.vlr, c.vmsc, c.sgsn, c.ggsn, router, c.gk, c.driver} {
		c.env.AddNode(node)
	}
	c.env.Connect("LOAD", "VMSC-1", "A", lat.A)
	c.env.Connect("LOAD", "VLR-1", "D", lat.SS7) // the driver plays the HLR's cancel role
	c.env.Connect("VMSC-1", "VLR-1", "B", lat.SS7)
	c.env.Connect("VLR-1", "HLR", "D", lat.SS7)
	c.env.Connect("VMSC-1", "SGSN-1", "Gb", lat.Gb)
	c.env.Connect("SGSN-1", "GGSN-1", "Gn", lat.Gn)
	c.env.Connect("SGSN-1", "HLR", "Gr", lat.SS7)
	c.env.Connect("GGSN-1", "HLR", "Gc", lat.SS7)
	c.env.Connect("GGSN-1", "GI", "Gi", lat.Gi)
	c.env.Connect("GI", "GK", "IP", lat.LAN)
	c.dirBase = c.dir.Bound()

	rng := rand.New(rand.NewSource(seed))
	block := rng.Intn(90) * 1_000_000 // populations stay below 10^6, numbers below 10^8
	order := rng.Perm(n)
	c.subs = make([]coreSub, n)
	for i, k := range order {
		num := block + k + 1
		s := coreSub{
			imsi:   gsmid.IMSI(fmt.Sprintf("46692%010d", num)),
			msisdn: gsmid.MSISDN(fmt.Sprintf("8869%08d", num)),
			ms:     sim.NodeID(fmt.Sprintf("MS%07d", k+1)),
		}
		c.subs[i] = s
		if err := c.hlr.Provision(hlr.Subscriber{
			IMSI: s.imsi, MSISDN: s.msisdn, Ki: [16]byte{byte(k), byte(k >> 8), 0x5A},
			Profile: sigmap.SubscriberProfile{
				MSISDN: s.msisdn, InternationalAllowed: true, VoIPQoS: 1,
			},
		}); err != nil {
			return nil, fmt.Errorf("provision subscriber %d: %w", k, err)
		}
	}
	return c, nil
}

// attachWave sends one LocationUpdate for each of subs[lo:hi] and runs to
// quiescence: the VMSC drives the whole Fig 4 chain (VLR location update,
// GPRS attach, signalling PDP, gatekeeper RRQ) before each accept returns.
func (c *coreNet) attachWave(lo, hi int) {
	c.driver.waveStart = c.env.Now()
	for _, s := range c.subs[lo:hi] {
		c.env.Send("LOAD", "VMSC-1", gsm.LocationUpdate{
			Leg: gsm.LegA, MS: s.ms, Identity: gsmid.ByIMSI(s.imsi), LAI: coreCell.LAI,
		})
	}
	c.env.Run()
}

// callWave originates one MS-to-MS call per pair and runs until every call
// has been set up, held and released. refBase keeps call references unique
// across waves.
func (c *coreNet) callWave(pairs [][2]int32, refBase int) {
	c.driver.waveStart = c.env.Now()
	for k, p := range pairs {
		c.env.Send("LOAD", "VMSC-1", gsm.Setup{
			Leg: gsm.LegA, MS: c.subs[p[0]].ms, CallRef: uint32(refBase + k + 1),
			Called: c.subs[p[1]].msisdn,
		})
	}
	c.env.Run()
}

// cancelWave sends one CancelLocation per subscriber of subs[lo:hi] into the
// VLR, which relays it to the VMSC; the VMSC unwinds the gatekeeper alias,
// the GPRS contexts and the directory binding and frees the slab row.
func (c *coreNet) cancelWave(lo, hi int) {
	c.driver.waveStart = c.env.Now()
	for i, s := range c.subs[lo:hi] {
		c.env.Send("LOAD", "VLR-1", sigmap.CancelLocation{
			Invoke: ss7.InvokeID(lo + i + 1), IMSI: s.imsi,
		})
	}
	c.env.Run()
}

// checkResident verifies that exactly n subscribers are accepted and
// resident in every store of the stack.
func (c *coreNet) checkResident(n int) error {
	d := c.driver
	if d.accepts != n || d.rejects != 0 || c.vmsc.MSTable() != n || c.gk.Registered() != n ||
		c.ggsn.ActiveContexts() != n || c.vlr.Registered() != n || c.sgsn.Attached() != n {
		return fmt.Errorf("population incomplete: accepts %d rejects %d VMSC %d GK %d GGSN %d VLR %d SGSN %d, want %d",
			d.accepts, d.rejects, c.vmsc.MSTable(), c.gk.Registered(),
			c.ggsn.ActiveContexts(), c.vlr.Registered(), c.sgsn.Attached(), n)
	}
	return nil
}

// leftover counts records still resident anywhere in the stack.
func (c *coreNet) leftover() int {
	return c.vmsc.MSTable() + c.gk.Registered() + c.vlr.Registered() +
		c.sgsn.Attached() + c.sgsn.ActiveContexts() + c.ggsn.ActiveContexts() +
		(c.dir.Bound() - c.dirBase)
}

func (c *coreNet) slabImbalance() int {
	return c.vmsc.SlabImbalance() + c.gk.SlabImbalance() + c.vlr.SlabImbalance() +
		c.hlr.SlabImbalance() + c.sgsn.SlabImbalance() + c.ggsn.SlabImbalance()
}

// residual is the coreNet counterpart of netsim.VGPRSNet.Residual: every
// in-flight signalling record, which a quiesced network must not hold.
func (c *coreNet) residual() int {
	return c.vmsc.PendingTransactions() + c.vmsc.ActiveCalls() + c.vmsc.InflightFrames() +
		c.vlr.PendingUpdates() + c.vlr.OutstandingDialogues() + c.vlr.OutstandingMSRNs() +
		c.hlr.OutstandingDialogues() +
		c.sgsn.PendingTransactions() + c.sgsn.OutstandingDialogues() +
		c.ggsn.PendingCreates() + c.ggsn.OutstandingDialogues() + c.ggsn.QueuedPackets()
}

func (c *coreNet) retransmits() uint64 {
	return c.vmsc.Retransmits() + c.vlr.Retransmits() + c.hlr.Retransmits() +
		c.sgsn.Retransmits() + c.ggsn.Retransmits()
}
