// Package vmsc implements the paper's contribution: the VoIP Mobile
// Switching Center, a router-based softswitch that replaces the GSM MSC.
//
// Toward the radio network the VMSC is indistinguishable from an MSC (A
// interface to the BSC, MAP B to the VLR). Toward the packet core it acts
// as a GPRS MS *per registered subscriber*: it attaches and activates PDP
// contexts over the Gb interface exactly like a handset would (paper step
// 1.3), giving every MS an IP identity. Toward the VoIP world it is an
// H.323 endpoint per MS, registering each MSISDN with a standard gatekeeper
// (step 1.4) and running H.225/Q.931 call signalling plus vocoder-transcoded
// RTP through the GPRS tunnel. Toward legacy MSCs it anchors inter-system
// handovers over MAP E and ISUP trunks (Fig 9).
//
// The MS table required by the paper ("the VMSC maintains an MS table...
// MM and PDP contexts such as TMSI, IMSI, and the QoS profile requested")
// is the ents slab below: rows live by value in slab chunks addressed by
// generational handles, with open-addressing indexes for the IMSI, MSISDN
// and radio-node lookups — the same storage treatment the HLR/VLR/SGSN/GGSN
// already use, so a million-subscriber population is flat arrays rather
// than a million map-of-pointer entries.
package vmsc

import (
	"net/netip"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/msc"
	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// NSAPIs for the two PDP contexts each MS holds (paper steps 1.3 and 2.9).
const (
	NSAPISignalling uint8 = 5
	NSAPIVoice      uint8 = 6
)

// mscShards is the MS-table slab fan-out. Entries route by IMSI hash; the
// per-shard audits localise a leak to one shard.
const mscShards = 8

// HandoverTarget names the legacy MSC (and its BTS, standing in for the
// radio channel description) serving a neighbour cell.
type HandoverTarget struct {
	MSC sim.NodeID
	BTS sim.NodeID
}

// Hooks observe VMSC events; all run on the simulation goroutine.
type Hooks struct {
	// OnMSRegistered fires when the full Fig 4 procedure (VLR + GPRS +
	// gatekeeper) completes for an MS.
	OnMSRegistered func(imsi gsmid.IMSI, addr netip.Addr)
	// OnMSRegisterFailed fires when any stage fails.
	OnMSRegisterFailed func(imsi gsmid.IMSI, stage string)
	// OnCallEstablished fires when a call reaches conversation.
	OnCallEstablished func(imsi gsmid.IMSI, mobileOriginated bool)
	// OnCallReleased fires when a call finishes clearing.
	OnCallReleased func(imsi gsmid.IMSI)
	// OnHandoverComplete fires when an inter-system handover finishes.
	OnHandoverComplete func(imsi gsmid.IMSI, target sim.NodeID)
}

// Config parameterises a VMSC.
type Config struct {
	ID sim.NodeID
	// VLR is the attached visitor location register (B interface).
	VLR sim.NodeID
	// SGSN is the Gb peer.
	SGSN sim.NodeID
	// Cell is the cell identity stamped on the virtual MSs' Gb traffic.
	Cell gsmid.CGI
	// Gatekeeper is the H.323 gatekeeper's IP address.
	Gatekeeper netip.Addr
	// Dir resolves IP addresses for trace annotation.
	Dir *h323.Directory
	// HandoverTargets maps neighbour cells to legacy MSCs (Fig 9).
	HandoverTargets map[gsmid.CGI]HandoverTarget
	// ETrunks maps each E-interface peer MSC to the shared trunk group.
	ETrunks map[sim.NodeID]*isup.TrunkGroup
	// HandbackCells maps this VMSC's own cells to their BTS nodes, so a
	// subsequent-handover request naming one of them is recognised as a
	// handback onto the anchor's radio system (GSM 03.09).
	HandbackCells map[gsmid.CGI]sim.NodeID
	// DeactivateIdlePDP enables the ablation the paper discusses in §6:
	// tear the signalling PDP context down while the MS is idle and
	// re-activate per call. Requires static PDP addresses.
	DeactivateIdlePDP bool
	// StaticAddrs provides per-IMSI static PDP addresses for the
	// DeactivateIdlePDP mode (and must be provisioned at the GGSN).
	StaticAddrs map[gsmid.IMSI]string
	// PagingTimeout bounds the wait for paging responses. Zero = 5 s.
	PagingTimeout time.Duration
	// SigRTO is the initial retransmission timeout for MAP, RAS and
	// Q.931 transactions; it doubles on each retry, capped at 8x. Zero
	// = 1 s.
	SigRTO time.Duration
	// SigRetries is the per-transaction retransmission budget. Zero
	// means the default (3); negative disables retransmission.
	SigRetries int
	// H323Retries is a separate budget for the RAS and Q.931 planes,
	// whose PDUs tunnel through the whole GPRS stack and so cross far
	// more lossy hops end-to-end than the single-hop MAP links (H.225
	// rides TCP in real deployments, so a transport-grade budget here
	// is the honest model). Zero inherits SigRetries; negative
	// disables retransmission.
	H323Retries int
	// TranscodeCost is the vocoder's per-frame processing delay in each
	// direction. Zero means codec.TranscodeCost (500µs). The A2 ablation
	// sweeps it to show how vocoder placement at the VMSC prices into
	// mouth-to-ear delay.
	TranscodeCost time.Duration

	Hooks Hooks
}

// VMSC is the VoIP mobile switching center node.
type VMSC struct {
	cfg       Config
	registrar *msc.Registrar
	hoTarget  *msc.HandoverTarget
	dm        *ss7.DialogueManager

	keepAlive bool

	// ents is the paper's MS table: rows by value in slab chunks, indexed
	// by packed IMSI, serving radio node, and packed MSISDN. Chunks never
	// move, so an *msEntry stays valid until the row is freed; everything
	// that outlives a procedure step (calls, RAS transactions, paging
	// timers) references the row by generational Handle instead, so a
	// freed subscriber can never be resurrected through a stale pointer.
	ents     *slab.Sharded[msEntry]
	byIMSI   *slab.Index[gsmid.PackedDigits]
	byMS     *slab.Index[sim.NodeID]
	byMSISDN *slab.Index[gsmid.PackedDigits]
	// nodes and lais intern what rows reference by symbol: serving BSCs and
	// location areas, both bounded by the topology.
	nodes slab.Syms[sim.NodeID]
	lais  slab.Syms[gsmid.LAI]

	// One transaction table per plane beside the MAP dialogues in dm: RAS
	// exchanges by sequence number, the Q.931 T303/T313 cycle of each call,
	// and the GMM/SM procedures of every row's GPRS client (see rowHost).
	// Their counters are this VMSC's pending and
	// retransmit totals.
	ras     *txn.Table[uint32, rasTxn]
	q931    *txn.Table[*vCall, q931Txn]
	gmm     *gprs.Transactions
	nextRAS uint32

	// hoCalls indexes handed-over calls by the anchor-allocated trunk
	// call reference (Q.931 references are resolved per MS entry, since
	// each MS holds at most one call).
	hoCalls    map[uint32]*vCall
	nextHORef  uint32
	nextHOChan uint16
	active     int

	// frameJobs counts scheduled-but-not-yet-fired vocoder jobs (the
	// transcode-delay timers on the talk path); the residual leak audit
	// checks it drains to zero after release.
	frameJobs int

	stats Stats
}

// Stats counts VMSC activity for the experiment harness.
type Stats struct {
	Registrations    uint64
	RegisterFailers  uint64
	CallsEstablished uint64
	CallsReleased    uint64
	FramesUplink     uint64
	FramesDownlink   uint64
	FramesClipped    uint64 // speech frames arriving before the voice PDP context was ready
	Handovers        uint64
}

// msEntry is one row of the MS table: the MM context, the GMM/SM state of the
// virtual GPRS client holding the PDP contexts, and the registration flags —
// 160 bytes with nothing allocated beside it. Whatever is the same for every
// row is the VMSC's, not the row's: the VMSC hosts the row's GPRS state
// machine (rowHost), builds its H.323 endpoint on the stack (endpoint), and
// is the argument of the registration chain's completion callbacks, which
// find the row again through its handle. Identities are packed, node names
// and location areas interned (DESIGN.md §8 lists what may sit in a row).
type msEntry struct {
	// self is the row's own slab handle; index entries and cross-references
	// (vCall.entryH, rasTxn.entryH, the GMM/SM procedure keys) carry it
	// instead of the pointer.
	self      slab.Handle
	imsiKey   gsmid.PackedDigits
	msisdnKey gsmid.PackedDigits
	ms        sim.NodeID
	call      *vCall
	// addr is the signalling PDP address, the MS's H.323 identity; it stays
	// valid while the context is down in DeactivateIdlePDP mode.
	addr netip.Addr
	gmm  gprs.ClientState
	tmsi gsmid.TMSI
	lai  uint32 // symbol in VMSC.lais
	bsc  uint32 // symbol in VMSC.nodes

	registered bool
	voiceUp    bool
	// purge marks a row whose subscriber left the area (CancelLocation):
	// the slot is freed — handle invalidated, indexes dropped — once the
	// deregistration chain (URQ, GPRS detach) completes.
	purge bool
	// regAnnounce is whether the in-flight registration's completion answers
	// the radio path (initial registration) or stays silent (keepalive-driven
	// re-registration).
	regAnnounce bool
}

// client binds a row's GMM/SM state to the VMSC's table for one call into the
// shared gprs state machine.
func (v *VMSC) client(e *msEntry) gprs.Session { return v.gmm.Session(e.self, e.imsiKey, &e.gmm) }

// bscOf returns the BSC currently serving a row's MS.
func (v *VMSC) bscOf(e *msEntry) sim.NodeID { return v.nodes.Val(e.bsc) }

// rowHost is the VMSC in the roles it plays for every row (gprs.Host,
// h323.Sender): the row's GMM/SM procedures run in the VMSC's one table on its
// signalling schedule, and its H.323 endpoint sends into its PDP contexts.
type rowHost VMSC

func (h *rowHost) Policy() txn.Policy {
	return txn.Policy{RTO: h.cfg.SigRTO, Retries: h.cfg.SigRetries}
}

func (h *rowHost) ClientState(owner slab.Handle) *gprs.ClientState {
	if e := h.ents.Get(owner); e != nil {
		return &e.gmm
	}
	return nil
}

// SendLLC puts uplink LLC PDUs straight onto the Gb interface — the
// VMSC-specific twist on the shared state machine.
func (h *rowHost) SendLLC(env *sim.Env, owner slab.Handle, tlli gsmid.TLLI, pdu []byte) {
	if e := h.ents.Get(owner); e != nil {
		env.Send(h.cfg.ID, h.cfg.SGSN, gb.ULUnitdata{TLLI: tlli, MS: e.ms, Cell: h.cfg.Cell, PDU: pdu})
	}
}

// PacketIn feeds downlink IP packets to the H.323 side.
func (h *rowHost) PacketIn(env *sim.Env, owner slab.Handle, _ uint8, pkt ipnet.Packet) {
	if e := h.ents.Get(owner); e != nil {
		(*VMSC)(h).handleIP(env, e, pkt)
	}
}

// ActivationRequested brings the signalling context back on a
// network-requested PDP activation (DeactivateIdlePDP mode) so an incoming
// Setup can reach us.
func (h *rowHost) ActivationRequested(env *sim.Env, owner slab.Handle, address string) {
	v := (*VMSC)(h)
	e := v.ents.Get(owner)
	if e == nil {
		return
	}
	if _, active := e.gmm.Context(NSAPISignalling); active {
		return
	}
	_ = v.client(e).ActivatePDPArg(env, NSAPISignalling, gtp.SignallingQoS(), address,
		reactivateSigDone, v)
}

// reactivateSigDone records the re-activated signalling context's address.
func reactivateSigDone(_ *sim.Env, arg any, owner slab.Handle, addr netip.Addr, ok bool) {
	if e := arg.(*VMSC).ents.Get(owner); ok && e != nil {
		e.addr = addr
	}
}

// endpoint is a row's H.323 endpoint, built on the caller's stack: only the
// address is the row's own, and rowHost routes what it sends back to the row.
func (v *VMSC) endpoint(e *msEntry) h323.Endpoint {
	return h323.Endpoint{Node: v.cfg.ID, Addr: e.addr, Dir: v.cfg.Dir, Via: (*rowHost)(v), Owner: e.self}
}

// SendIPPacket implements h323.Sender: a row's H.323 traffic routes through
// the MS's PDP contexts, choosing the voice context for RTP when it is up —
// the traffic-flow-template role of GPRS.
func (h *rowHost) SendIPPacket(env *sim.Env, owner slab.Handle, pkt ipnet.Packet) {
	v := (*VMSC)(h)
	e := v.ents.Get(owner)
	if e == nil {
		return
	}
	nsapi := NSAPISignalling
	if e.voiceUp && (pkt.DstPort == ipnet.PortRTP || pkt.SrcPort == ipnet.PortRTP) {
		// RTP rides the voice context on an allocation-free relay: frame
		// the SNDCP PDU into the call's reusable buffer and put the call's
		// reusable Gb message straight on the wire (pointer messages are
		// not boxed by the interface conversion).
		if _, active := e.gmm.Context(NSAPIVoice); active && e.call != nil {
			med := &e.call.med
			med.llcBuf = gprs.AppendData(med.llcBuf[:0], NSAPIVoice, pkt)
			med.ulMsg = gb.ULUnitdata{
				TLLI: v.client(e).TLLI(), MS: e.ms, Cell: v.cfg.Cell, PDU: med.llcBuf,
			}
			env.Send(v.cfg.ID, v.cfg.SGSN, &med.ulMsg)
			return
		}
		nsapi = NSAPIVoice
	}
	_ = v.client(e).SendIP(env, nsapi, pkt)
}

type callState uint8

const (
	callRouting callState = iota + 1
	callPaging
	callDelivering
	callAlerting
	callActive
	callClearing
)

// vCall is one call through the VMSC.
type vCall struct {
	v *VMSC
	// entryH references the owning MS-table row by generational handle;
	// ent() resolves it and reports nil once the subscriber was purged.
	entryH slab.Handle
	// env is the simulation the call runs under, kept for retry timers
	// and retried-dialogue completions that have no live env of their own.
	env *sim.Env
	// ref is the Q.931 call reference on the H.323 leg.
	ref uint16
	// radioRef is the call reference on the A-interface leg.
	radioRef         uint32
	state            callState
	mobileOriginated bool
	// answered dedupes retransmitted Q.931 Connects: the answer is
	// processed once, later copies are only re-acknowledged.
	answered bool
	// released marks a call already passed to forget. Release can reach a
	// call from two directions at once (a far-end ReleaseComplete racing
	// the paging timeout, say); the second path must be a no-op or the
	// active-call count and release stats double-book.
	released bool
	// paging is the page-response timer of an MT call, cancelled when the
	// MS answers the page or the call is released, so the event queue does
	// not hold a finished call for the rest of PagingTimeout.
	paging sim.Timer

	// remote is the far party's alias (dialled number on MO, calling
	// party on MT) — the gatekeeper's DRQ matching needs it.
	remote    gsmid.MSISDN
	remoteSig netip.Addr
	remoteMed q931.MediaAddr

	rtpSeq  uint16
	seqDown uint32
	// med is the per-call reusable media-plane state: transcode buffers,
	// the RTP marshal buffer, the pre-bound vocoder-job records, and the
	// RFC 3550 receiver stats for the RTP leg. All of it is scratch that
	// is overwritten every frame interval; nothing downstream retains it
	// longer than the pipeline latency (see callMedia).
	med callMedia

	// Inter-system handover leg (Fig 9), once active.
	hoActive bool
	hoRef    uint32
	hoPeer   sim.NodeID
	hoCIC    isup.CIC
	hoTrunks *isup.TrunkGroup
	hoSeq    uint32
	// hoNext is the prepared-but-not-yet-confirmed leg of a subsequent
	// handover to a third MSC; it replaces hoPeer/hoCIC/hoTrunks when
	// the new target reports the MS's arrival.
	hoNext *hoLeg
}

// ent resolves the call's MS-table row. A nil result means the row was
// freed since the call started (generational-handle invalidation); callers
// treat it as "subscriber gone" and wind the call down.
func (c *vCall) ent() *msEntry { return c.v.ents.Get(c.entryH) }

// hoLeg is one circuit leg of the inter-system handover path.
type hoLeg struct {
	peer   sim.NodeID
	cic    isup.CIC
	trunks *isup.TrunkGroup
}

var _ sim.Node = (*VMSC)(nil)

// New returns a VMSC.
func New(cfg Config) *VMSC {
	if cfg.PagingTimeout == 0 {
		cfg.PagingTimeout = 5 * time.Second
	}
	if cfg.SigRTO == 0 {
		cfg.SigRTO = time.Second
	}
	if cfg.H323Retries == 0 {
		cfg.H323Retries = cfg.SigRetries
	}
	v := &VMSC{
		cfg:      cfg,
		dm:       ss7.NewDialogueManager(cfg.ID),
		ents:     slab.NewSharded[msEntry](mscShards),
		byIMSI:   slab.NewIndex[gsmid.PackedDigits](gsmid.PackedDigits.Hash),
		byMS:     slab.NewIndex[sim.NodeID](hashNodeID),
		byMSISDN: slab.NewIndex[gsmid.PackedDigits](gsmid.PackedDigits.Hash),
		hoCalls:  make(map[uint32]*vCall),
	}
	v.gmm = gprs.NewTransactions((*rowHost)(v))
	v.ras = txn.New[uint32](v.rasResend, rasExpired)
	v.q931 = txn.New[*vCall](v.q931Resend, v.q931Expired)
	v.registrar = msc.NewRegistrar(cfg.ID, cfg.VLR, v.onVLROutcome)
	v.registrar.RTO = cfg.SigRTO
	v.registrar.Retries = cfg.SigRetries
	v.hoTarget = msc.NewHandoverTarget(cfg.ID, "88697")
	return v
}

// hashNodeID keys the radio-node index (deterministic, unseeded).
func hashNodeID(n sim.NodeID) uint64 { return slab.HashString(string(n)) }

// entryByIMSI resolves a subscriber row by IMSI (nil if absent).
func (v *VMSC) entryByIMSI(imsi gsmid.IMSI) *msEntry {
	return v.ents.Get(v.byIMSI.Get(imsi.Pack()))
}

// entryByMS resolves a subscriber row by its radio node (nil if absent).
func (v *VMSC) entryByMS(ms sim.NodeID) *msEntry {
	return v.ents.Get(v.byMS.Get(ms))
}

// getOrCreateEntry returns the row for imsi, allocating a slab slot and
// indexing it on first sight.
func (v *VMSC) getOrCreateEntry(imsi gsmid.IMSI) *msEntry {
	key := imsi.Pack()
	if e := v.ents.Get(v.byIMSI.Get(key)); e != nil {
		return e
	}
	h, e := v.ents.Alloc(int(key.Hash() & (mscShards - 1)))
	e.self, e.imsiKey = h, key
	v.byIMSI.Put(key, h)
	return e
}

// freeEntry releases a subscriber row: every index entry is dropped, the
// directory binding removed, and the slab slot freed — which bumps the
// slot's generation, so handles minted for this occupancy (calls, RAS
// transactions, paging timers, test probes) resolve to nil from now on.
func (v *VMSC) freeEntry(entry *msEntry) {
	v.byIMSI.Delete(entry.imsiKey)
	if !entry.msisdnKey.IsZero() {
		v.byMSISDN.Delete(entry.msisdnKey)
	}
	if entry.ms != "" {
		v.byMS.Delete(entry.ms)
	}
	if v.cfg.Dir != nil && entry.addr.IsValid() {
		v.cfg.Dir.Unbind(entry.addr)
	}
	v.ents.Free(entry.self)
}

// HandoversIn returns how many inter-system handovers this VMSC received as
// the target — the paper's §7 "between two VMSCs follows the same
// procedure" case.
func (v *VMSC) HandoversIn() uint64 { return v.hoTarget.Completed() }

// ID implements sim.Node.
func (v *VMSC) ID() sim.NodeID { return v.cfg.ID }

// Stats returns a copy of the activity counters.
func (v *VMSC) Stats() Stats { return v.stats }

// MSTable returns the number of MS table entries (MM+PDP contexts held).
func (v *VMSC) MSTable() int { return v.ents.Len() }

// Entry reports a subscriber's registration state and PDP address.
func (v *VMSC) Entry(imsi gsmid.IMSI) (addr netip.Addr, registered bool, ok bool) {
	e := v.entryByIMSI(imsi)
	if e == nil {
		return netip.Addr{}, false, false
	}
	return e.addr, e.registered, true
}

// EntryHandle returns the generational slab handle of a subscriber's MS
// table row (zero if absent). Test instrumentation for handle-invalidation
// checks; production cross-references mint their own handles.
func (v *VMSC) EntryHandle(imsi gsmid.IMSI) slab.Handle {
	return v.byIMSI.Get(imsi.Pack())
}

// EntryAlive reports whether a handle still resolves to a live MS table
// row. A handle minted before the row was freed reports false forever.
func (v *VMSC) EntryAlive(h slab.Handle) bool { return v.ents.Get(h) != nil }

// ActiveCalls returns the number of calls in progress.
func (v *VMSC) ActiveCalls() int { return v.active }

// InflightFrames returns vocoder jobs scheduled but not yet fired. Zero
// once the media plane has drained; the residual audit asserts this.
func (v *VMSC) InflightFrames() int { return v.frameJobs }

// MediaStats is the RTP-leg receiver accounting for one call, measured at
// the VMSC where the far party's RTP stream terminates. Loss here
// attributes drops to the core (Gb/Gn) legs specifically, as opposed to
// the listener-side end-to-end loss the MS reports.
type MediaStats struct {
	RTPReceived  uint64
	RTPExpected  uint64
	RTPReordered uint64
	// RTPJitter is the RFC 3550 interarrival jitter estimate.
	RTPJitter time.Duration
}

// CallMedia reports the RTP receiver stats for an MS's active call. Read
// it before release: the stats live on the call and die with it.
func (v *VMSC) CallMedia(ms sim.NodeID) (MediaStats, bool) {
	e := v.entryByMS(ms)
	if e == nil || e.call == nil {
		return MediaStats{}, false
	}
	rx := &e.call.med.rx
	return MediaStats{
		RTPReceived:  rx.Received(),
		RTPExpected:  rx.ExpectedFrom(),
		RTPReordered: rx.Reordered(),
		RTPJitter:    rx.Jitter(),
	}, true
}

// PendingRAS returns RAS transactions still awaiting a gatekeeper answer.
func (v *VMSC) PendingRAS() int { return v.ras.InFlight() }

// HandoffCalls returns calls currently relayed over an E-interface trunk
// (this VMSC as the anchor of an inter-system handover).
func (v *VMSC) HandoffCalls() int { return len(v.hoCalls) }

// PendingTransactions sums every transient signalling record this VMSC
// holds: open MAP dialogues, in-flight location updates at the registrar,
// RAS transactions, and the per-MS GPRS clients' GMM/SM transactions. A
// quiesced VMSC reports zero; the scenario soak asserts on it.
func (v *VMSC) PendingTransactions() int {
	return v.dm.Outstanding() + v.registrar.Pending() + v.ras.InFlight() + v.gmm.InFlight()
}

// Audit reports every transient record this VMSC holds, by kind, plus its
// storage audit — all zero at quiescence. netsim's leak gate walks it.
func (v *VMSC) Audit(report func(kind string, n int)) {
	report("pending transactions", v.PendingTransactions())
	report("active calls", v.ActiveCalls())
	report("handoff trunk calls", v.HandoffCalls())
	report("in-flight media frames", v.InflightFrames())
	report("slab imbalance", v.SlabImbalance())
}

// Footprint is the memory the VMSC holds, in bytes: the MS table's slab
// chunks and index tables — all a resident subscriber costs it — plus the
// transaction tables, which a quiesced VMSC holds at their floor.
func (v *VMSC) Footprint() int {
	return v.ents.Bytes() + v.byIMSI.Bytes() + v.byMS.Bytes() + v.byMSISDN.Bytes() +
		v.dm.Bytes() + v.registrar.Bytes() + v.ras.Bytes() + v.q931.Bytes() + v.gmm.Bytes()
}

// SlabImbalance audits the MS-table storage: per-shard occupancy must
// balance (cap == live + free) and every index entry must resolve to a
// live row that agrees with the key, and the transaction tables (the
// registrar's included) must account for every record they allocated. Non-zero means a row or record
// leaked out of — or was lost by — its store; the soak/leak gates assert
// zero alongside the transient residuals.
func (v *VMSC) SlabImbalance() int {
	imb := v.dm.Occupancy().Imbalance() + v.ras.Occupancy().Imbalance() +
		v.q931.Occupancy().Imbalance() + v.gmm.Occupancy().Imbalance() + v.registrar.Imbalance()
	perShard := make([]int, mscShards)
	v.byIMSI.Range(func(k gsmid.PackedDigits, h slab.Handle) bool {
		e := v.ents.Get(h)
		if e == nil || e.imsiKey != k {
			imb++
			return true
		}
		perShard[h.Shard()]++
		return true
	})
	for _, a := range v.ents.Audit() {
		imb += a.Imbalance() + absInt(perShard[a.Shard]-a.Live)
	}
	v.byMS.Range(func(k sim.NodeID, h slab.Handle) bool {
		if e := v.ents.Get(h); e == nil || e.ms != k {
			imb++
		}
		return true
	})
	v.byMSISDN.Range(func(k gsmid.PackedDigits, h slab.Handle) bool {
		if e := v.ents.Get(h); e == nil || e.msisdnKey != k {
			imb++
		}
		return true
	})
	return imb
}

func absInt(d int) int {
	if d < 0 {
		return -d
	}
	return d
}

// staticAddrFor returns the provisioned static PDP address for a row in
// DeactivateIdlePDP mode ("" = dynamic).
func (v *VMSC) staticAddrFor(e *msEntry) string {
	if !v.cfg.DeactivateIdlePDP {
		return ""
	}
	return v.cfg.StaticAddrs[e.imsiKey.IMSI()]
}

// sigDeadline is the worst-case transaction lifetime under the capped RTO
// schedule (attempts at 0, T, 3T, 7T…). One-shot MAP dialogues that do not
// retransmit (the handover legs) use it so their timeout matches the
// retried planes' failure horizon.
func (v *VMSC) sigDeadline() time.Duration { return (*rowHost)(v).Policy().Deadline() }

// Retransmits reports the total signalling retransmissions this VMSC has
// performed across its MAP, RAS, Q.931 and GMM/SM planes. Each plane's count
// lives in its table, not on the subscriber, so the total never decreases
// when a subscriber is purged.
func (v *VMSC) Retransmits() uint64 {
	return v.dm.Retransmits() + v.ras.Retransmits() + v.q931.Retransmits() + v.gmm.Retransmits()
}

// TxnStats reports the lifetime counters of the four tables Retransmits
// sums, by plane. (The location-update registrar keeps its own MAP dialogue
// manager, which neither covers.)
func (v *VMSC) TxnStats(report func(plane string, s txn.Stats)) {
	report("MAP", v.dm.Stats())
	report("RAS", v.ras.Stats())
	report("Q.931", v.q931.Stats())
	report("GMM/SM", v.gmm.Stats())
}
