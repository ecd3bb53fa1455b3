package experiments

import (
	"fmt"
	"net/netip"
	"runtime"
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

// ScaleFullPoint is one population size of the full-stack scale experiment:
// the complete Fig 2(b) signalling chain — VMSC registration (Fig 4: VLR
// location update, GPRS attach, signalling-PDP activation, gatekeeper RRQ)
// and end-to-end MS-to-MS call setup (Figs 5-6) — with the whole population
// resident in one process. It charges every per-subscriber surface at once:
// the VMSC's MS table with its hosted GPRS clients, the VLR/HLR records, the
// SGSN/GGSN contexts, the gatekeeper registration table, and the H.323
// directory.
type ScaleFullPoint struct {
	Subs int `json:"subs"`

	// Registration: LocationUpdate in, LocationUpdateAccept out, with the
	// whole Fig 4 chain (VLR, HLR, SGSN, GGSN, gatekeeper) in between.
	AttachWallSec float64 `json:"attach_wall_sec"`
	AttachPerSec  float64 `json:"attach_per_sec"`

	// Memory accounting, DESIGN.md §8 methodology: heap delta between a
	// post-warm-wave baseline and full population, both after runtime.GC.
	WarmSubs       int     `json:"warm_subs"`
	HeapDeltaBytes uint64  `json:"heap_delta_bytes"`
	BytesPerSub    float64 `json:"bytes_per_sub"`

	// Peak residency across the stack.
	RegisteredVMSC int `json:"registered_vmsc"`
	GKRegistered   int `json:"gk_registered"`
	ActivePDP      int `json:"active_pdp_ggsn"`
	Rejects        int `json:"rejects"`

	// End-to-end call setup at full residency: MO Setup through SIFOC,
	// ARQ/ACF admission, Q.931 via the GGSN hairpin, paging, MT answer,
	// voice-PDP activation on both legs, then release.
	CallSetupOps    int     `json:"call_setup_ops"`
	CallSetupPerSec float64 `json:"call_setup_per_sec"`

	// Who owns which bytes of a resident subscriber: each node's Footprint()
	// (slab chunks, index tables, transaction tables) at full residency, per
	// subscriber. The split is exact accounting, not a heap measurement; what BytesPerSub
	// shows beyond its sum is heap outside the stores (MS-name strings, the
	// address pool's bitset, allocator rounding).
	Footprint NodeBytes `json:"footprint_bytes_per_sub"`

	// Host parallelism at measurement time: attach/s and call setup/s are
	// wall-clock rates.
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`

	// After cancel-all: records still resident anywhere in the stack (must
	// be zero) and the summed storage audit.
	DetachLeftover int `json:"detach_leftover"`
	SlabImbalance  int `json:"slab_imbalance"`
}

// fullGKAddr is the gatekeeper's IP on the simulated H.323 LAN.
var fullGKAddr = ipnet.MustAddr("192.168.1.1")

// scaleCell is the VMSC's one cell: every subscriber registers in it.
var scaleCell = gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}

// scaleWave is how many subscribers attach (or call, or cancel) between two
// quiescent points.
const scaleWave = 10_000

// fullMS names the i-th subscriber's MS node. The name is carried in radio
// messages and retained by the VMSC's MS table, so it is part of the
// per-subscriber cost this experiment charges.
func fullMS(i int) sim.NodeID { return sim.NodeID(fmt.Sprintf("MS%07d", i+1)) }

// fullDriver plays the BSC and every MS at once: it feeds location updates
// into the VMSC's A interface and answers the radio half of call setup
// (paging response, MT alerting/answer, MO hangup after a short hold). It
// keeps no per-subscriber state — every reply echoes the MS and call
// reference the VMSC addressed — so the measured heap belongs to the
// network elements.
type fullDriver struct {
	vmsc sim.NodeID
	hold time.Duration

	accepts     int
	rejects     int
	established int
	releases    int
}

func (d *fullDriver) ID() sim.NodeID { return "LOAD" }

func (d *fullDriver) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch t := msg.(type) {
	case gsm.LocationUpdateAccept:
		d.accepts++
	case gsm.LocationUpdateReject:
		d.rejects++
	case gsm.Paging:
		// Fig 6 step 4.4: the paged MS answers immediately.
		env.Send(d.ID(), d.vmsc, gsm.PagingResponse{Leg: gsm.LegA, MS: t.MS, Identity: t.Identity})
	case gsm.Setup:
		// MT Setup down the radio path (step 4.5): ring, then answer.
		env.Send(d.ID(), d.vmsc, gsm.Alerting{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
		env.Send(d.ID(), d.vmsc, gsm.Connect{Leg: gsm.LegA, MS: t.MS, CallRef: t.CallRef})
	case gsm.Connect:
		// The MO leg answered end to end: the call set up. Hold briefly —
		// long enough in simulated time for both voice-PDP activations to
		// land — then hang up.
		d.established++
		ms, ref := t.MS, t.CallRef
		env.After(d.hold, func() {
			env.Send(d.ID(), d.vmsc, gsm.Disconnect{Leg: gsm.LegA, MS: ms, CallRef: ref})
		})
	case gsm.Release:
		d.releases++
	}
}

// NodeBytes is memory split by the node that owns it.
type NodeBytes struct {
	VMSC       float64 `json:"vmsc"`
	VLR        float64 `json:"vlr"`
	HLR        float64 `json:"hlr"`
	SGSN       float64 `json:"sgsn"`
	GGSN       float64 `json:"ggsn"`
	Gatekeeper float64 `json:"gatekeeper"`
	Directory  float64 `json:"directory"`
}

// Sum is the total over all nodes.
func (b NodeBytes) Sum() float64 {
	return b.VMSC + b.VLR + b.HLR + b.SGSN + b.GGSN + b.Gatekeeper + b.Directory
}

// fullStack is the complete Fig 2(b) topology — real VMSC, VLR, HLR, SGSN,
// GGSN, GI router and gatekeeper — behind the stateless LOAD driver.
type fullStack struct {
	env     *sim.Env
	dir     *h323.Directory
	hlr     *hlr.HLR
	vlr     *vlr.VLR
	sgsn    *gprs.SGSN
	ggsn    *gprs.GGSN
	gk      *h323.Gatekeeper
	vmsc    *vmsc.VMSC
	load    *fullDriver
	dirBase int
}

// newFullStack builds the topology with an address pool for subs subscribers.
func newFullStack(seed int64, subs int) *fullStack {
	f := &fullStack{
		env: sim.NewEnv(seed),
		dir: h323.NewDirectory(),
		hlr: hlr.New(hlr.Config{ID: "HLR"}),
		vlr: vlr.New(vlr.Config{
			ID: "VLR-1", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690000",
			AuthDisabled: true,
		}),
		sgsn: gprs.NewSGSN(gprs.SGSNConfig{ID: "SGSN-1", GGSN: "GGSN-1", HLR: "HLR"}),
		// The pool base sits on a /8 so a million dynamic PDP addresses count
		// up without leaving the routed prefix.
		ggsn: gprs.NewGGSN(gprs.GGSNConfig{
			ID: "GGSN-1", PoolPrefix: "10.0.0.0", PoolSize: subs + 2, Gi: "GI", HLR: "HLR",
		}),
		load: &fullDriver{vmsc: "VMSC-1", hold: 100 * time.Millisecond},
	}
	router := ipnet.NewRouter("GI")
	f.gk = h323.NewGatekeeper(h323.GatekeeperConfig{ID: "GK", Addr: fullGKAddr, Router: "GI", Dir: f.dir})
	router.AddHost(fullGKAddr, "GK")
	router.AddPrefix(netip.MustParsePrefix("10.0.0.0/8"), "GGSN-1")
	f.dir.Bind(fullGKAddr, "GK")
	f.vmsc = vmsc.New(vmsc.Config{
		ID: "VMSC-1", VLR: "VLR-1", SGSN: "SGSN-1",
		Cell: scaleCell, Gatekeeper: fullGKAddr, Dir: f.dir,
	})

	env := f.env
	for _, node := range []sim.Node{f.hlr, f.vlr, f.vmsc, f.sgsn, f.ggsn, router, f.gk, f.load} {
		env.AddNode(node)
	}
	const lat = 50 * time.Microsecond
	env.Connect("LOAD", "VMSC-1", "A", lat)
	env.Connect("LOAD", "VLR-1", "B", lat) // plays the HLR's cancel role
	env.Connect("VMSC-1", "VLR-1", "B", lat)
	env.Connect("VLR-1", "HLR", "D", lat)
	env.Connect("VMSC-1", "SGSN-1", "Gb", lat)
	env.Connect("SGSN-1", "GGSN-1", "Gn", lat)
	env.Connect("SGSN-1", "HLR", "Gr", lat)
	env.Connect("GGSN-1", "HLR", "Gc", lat)
	env.Connect("GGSN-1", "GI", "Gi", lat)
	env.Connect("GI", "GK", "IP", lat)
	f.dirBase = f.dir.Bound()
	return f
}

// attach provisions subscriber i and sends its LocationUpdate from the given
// MS node.
func (f *fullStack) attach(i int, ms sim.NodeID) error {
	sub := netsim.SubscriberN(i)
	if err := f.hlr.Provision(hlr.Subscriber{
		IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
		Profile: sigmap.SubscriberProfile{
			MSISDN: sub.MSISDN, InternationalAllowed: true, VoIPQoS: 1,
		},
	}); err != nil {
		return err
	}
	f.env.Send("LOAD", "VMSC-1", gsm.LocationUpdate{
		Leg: gsm.LegA, MS: ms,
		Identity: gsmid.MobileIdentity{Kind: gsmid.IdentityIMSI, IMSI: sub.IMSI},
		LAI:      scaleCell.LAI,
	})
	return nil
}

// attachWave provisions and fully registers subscribers [lo, hi): one
// LocationUpdate each, quiesce. The VMSC runs the whole Fig 4 chain before
// the accept comes back.
func (f *fullStack) attachWave(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := f.attach(i, fullMS(i)); err != nil {
			return err
		}
	}
	f.env.Run()
	return nil
}

// cancelWave sends one CancelLocation per subscriber of [lo, hi) into the
// VLR, which relays to the VMSC; the VMSC unwinds the gatekeeper alias, the
// GPRS contexts and the directory binding, and frees the slab row.
func (f *fullStack) cancelWave(lo, hi int) {
	for i := lo; i < hi; i++ {
		f.env.Send("LOAD", "VLR-1", sigmap.CancelLocation{Invoke: ss7.InvokeID(i + 1), IMSI: netsim.SubscriberN(i).IMSI})
	}
	f.env.Run()
}

// leftover counts records still resident anywhere in the stack.
func (f *fullStack) leftover() int {
	return f.vmsc.MSTable() + f.gk.Registered() + f.vlr.Registered() +
		f.sgsn.Attached() + f.sgsn.ActiveContexts() + f.ggsn.ActiveContexts() +
		(f.dir.Bound() - f.dirBase)
}

// footprint returns each node's Footprint() in bytes, times scale.
func (f *fullStack) footprint(scale float64) NodeBytes {
	return NodeBytes{
		VMSC: scale * float64(f.vmsc.Footprint()), VLR: scale * float64(f.vlr.Footprint()),
		HLR: scale * float64(f.hlr.Footprint()), SGSN: scale * float64(f.sgsn.Footprint()),
		GGSN: scale * float64(f.ggsn.Footprint()), Gatekeeper: scale * float64(f.gk.Footprint()),
		Directory: scale * float64(f.dir.Footprint()),
	}
}

// RunScaleFull attaches `subs` subscribers through the complete Fig 2(b)
// topology and measures bytes/subscriber at full residency (with the
// per-node split), registration throughput, end-to-end call-setup
// throughput, and full recycling via CancelLocation. atResidency, if not
// nil, runs once the whole population is resident and the heap collected —
// the point a heap profile answers "what is in it".
func RunScaleFull(seed int64, subs int, atResidency func() error) (ScaleFullPoint, error) {
	var p ScaleFullPoint
	p.Subs = subs
	p.GoMaxProcs = runtime.GOMAXPROCS(0)
	p.NumCPU = runtime.NumCPU()
	if subs < 8 {
		return p, fmt.Errorf("experiments: full-stack scale needs at least 8 subscribers, got %d", subs)
	}
	f := newFullStack(seed, subs)
	env, d := f.env, f.load

	// Flat attach, wave by wave, with the DESIGN.md §8 warm-wave baseline.
	warm := subs / 10
	if warm < 2 {
		warm = 2
	}
	if warm > scaleWave {
		warm = scaleWave
	}
	start := time.Now()
	if err := f.attachWave(0, warm); err != nil {
		return p, err
	}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	for lo := warm; lo < subs; lo += scaleWave {
		hi := lo + scaleWave
		if hi > subs {
			hi = subs
		}
		if err := f.attachWave(lo, hi); err != nil {
			return p, err
		}
	}
	p.AttachWallSec = time.Since(start).Seconds()
	var full runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&full)
	p.WarmSubs = warm
	if full.HeapAlloc > base.HeapAlloc {
		p.HeapDeltaBytes = full.HeapAlloc - base.HeapAlloc
	}
	p.BytesPerSub = float64(p.HeapDeltaBytes) / float64(subs-warm)
	p.AttachPerSec = float64(subs) / p.AttachWallSec
	p.Footprint = f.footprint(1 / float64(subs))
	if atResidency != nil {
		if err := atResidency(); err != nil {
			return p, err
		}
	}

	p.RegisteredVMSC = f.vmsc.MSTable()
	p.GKRegistered = f.gk.Registered()
	p.ActivePDP = f.ggsn.ActiveContexts()
	p.Rejects = d.rejects
	if d.accepts != subs || p.RegisteredVMSC != subs || p.GKRegistered != subs || p.ActivePDP != subs {
		return p, fmt.Errorf("experiments: full-stack population incomplete: accepts %d VMSC %d GK %d GGSN %d of %d (%d rejects)",
			d.accepts, p.RegisteredVMSC, p.GKRegistered, p.ActivePDP, subs, d.rejects)
	}

	// End-to-end call setup at full residency: the low half of the
	// population calls the high half in disjoint pairs, wave by wave, each
	// call torn down after a short hold so waves cannot collide.
	callOps := subs / 2
	if callOps > 20_000 {
		callOps = 20_000
	}
	stride := (subs / 2) / callOps
	start = time.Now()
	for done := 0; done < callOps; {
		hi := done + scaleWave
		if hi > callOps {
			hi = callOps
		}
		for k := done; k < hi; k++ {
			caller := k * stride
			env.Send("LOAD", "VMSC-1", gsm.Setup{
				Leg: gsm.LegA, MS: fullMS(caller), CallRef: uint32(k + 1),
				Called: netsim.SubscriberN(caller + subs/2).MSISDN,
			})
		}
		done = hi
		env.Run()
	}
	p.CallSetupOps = callOps
	p.CallSetupPerSec = float64(callOps) / time.Since(start).Seconds()
	if d.established != callOps || f.vmsc.ActiveCalls() != 0 {
		return p, fmt.Errorf("experiments: full-stack calls incomplete: %d of %d established, %d still active",
			d.established, callOps, f.vmsc.ActiveCalls())
	}

	for lo := 0; lo < subs; lo += scaleWave {
		f.cancelWave(lo, min(lo+scaleWave, subs))
	}
	p.DetachLeftover = f.leftover()
	p.SlabImbalance = f.vmsc.SlabImbalance() + f.gk.SlabImbalance() + f.vlr.SlabImbalance() +
		f.hlr.SlabImbalance() + f.sgsn.SlabImbalance() + f.ggsn.SlabImbalance()
	return p, nil
}

// RunScaleFullSweep runs RunScaleFull at each population size.
func RunScaleFullSweep(seed int64, sizes []int, atResidency func() error) ([]ScaleFullPoint, error) {
	var points []ScaleFullPoint
	for _, n := range sizes {
		pt, err := RunScaleFull(seed, n, atResidency)
		if err != nil {
			return points, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// ScaleFullTable renders the full-stack sweep.
func ScaleFullTable(points []ScaleFullPoint) *metrics.Table {
	t := metrics.NewTable(
		"SCALE-FULL: full-stack residency and throughput (Fig 2(b) topology)",
		"subscribers", "bytes/sub", "attach/s", "call setup/s", "leftover", "imbalance")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.Subs),
			fmt.Sprintf("%.0f", p.BytesPerSub),
			fmt.Sprintf("%.0f", p.AttachPerSec),
			fmt.Sprintf("%.0f", p.CallSetupPerSec),
			fmt.Sprintf("%d", p.DetachLeftover),
			fmt.Sprintf("%d", p.SlabImbalance),
		)
	}
	return t
}

// ScaleFootprintTable renders who owns which bytes of a resident subscriber:
// each node's stores per subscriber, their sum, and the measured heap figure
// the sum accounts for.
func ScaleFootprintTable(points []ScaleFullPoint) *metrics.Table {
	t := metrics.NewTable(
		"SCALE-FULL: bytes of a resident subscriber by owning node (slab chunks + index tables + transaction tables)",
		"subscribers", "VMSC", "VLR", "HLR", "SGSN", "GGSN", "GK", "directory", "stores", "heap")
	for _, p := range points {
		b := p.Footprint
		row := []string{fmt.Sprintf("%d", p.Subs)}
		for _, v := range []float64{b.VMSC, b.VLR, b.HLR, b.SGSN, b.GGSN, b.Gatekeeper, b.Directory, b.Sum(), p.BytesPerSub} {
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		t.AddRow(row...)
	}
	return t
}
