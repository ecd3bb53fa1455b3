package gprs

import (
	"net/netip"
	"sync"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/ipnet"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/ss7"
	"vgprs/internal/txn"
)

// GGSNConfig parameterises a GGSN node.
type GGSNConfig struct {
	ID sim.NodeID
	// PoolPrefix is the dynamic PDP address range base, e.g. "10.1.1.0".
	PoolPrefix string
	// PoolSize is the dynamic address pool capacity. Zero means the
	// classic 254-host /24; large-population sweeps size it to the
	// subscriber count.
	PoolSize int
	// Gi is the external packet-network router (the PSDN / H.323 LAN).
	Gi sim.NodeID
	// HLR, when set, is queried over Gc during PDP activation — paper
	// step 1.3: "the IMSI of the MS is used by the GGSN to retrieve the
	// HLR record to obtain information such as IP address".
	HLR sim.NodeID
	// SigRTO is the initial retransmission timeout for Gc dialogues; it
	// doubles on every retry. Zero means 1 second.
	SigRTO time.Duration
	// SigRetries bounds retransmissions per dialogue. Zero means 3.
	SigRetries int
	// NetworkInitiatedActivation enables the TR 23.923 MT path: downlink
	// packets for a provisioned static address with no context trigger a
	// PDU Notification toward the subscriber's SGSN (found via Gc).
	NetworkInitiatedActivation bool
	// MaxKbps caps the negotiated peak throughput per context (0 = no
	// cap) — the GSM 03.60 QoS negotiation, downward only.
	MaxKbps uint16
}

// ggsnShards is the slab fan-out; contexts spread by TID hash.
const ggsnShards = 8

// maxQueuedPerAddr bounds the packets parked per destination address while
// network-initiated activation runs. A paging burst beyond the cap drops
// the overflow (counted in QueueDrops) instead of pinning memory for the
// life of the PDP context.
const maxQueuedPerAddr = 32

// ggsnRec is the GGSN's slab-resident per-context record — the paper's
// step 1.3 lists its fields: "IMSI, IP address, QoS profile negotiated,
// SGSN address, and so on". Fixed size: the IMSI is BCD-packed and the
// SGSN an interned symbol; the only pointer is the lazily-allocated media
// relay state on realtime contexts, cleared when the context is freed.
type ggsnRec struct {
	imsi    gsmid.PackedDigits
	nsapi   uint8
	dynamic bool
	tid     gtp.TID
	sgsn    uint32 // symbol in GGSN.names
	address netip.Addr
	qos     gtp.QoSProfile
	media   *ggsnMedia
}

// ggsnMedia holds a realtime context's reusable downlink GTP message: the
// voice hairpin overwrites it once per frame interval, and the SGSN
// consumes the previous one within the Gn latency.
type ggsnMedia struct {
	tpdu gtp.TPDU
}

// GGSN is the gateway GPRS support node: the anchor between GTP tunnels and
// the external packet network (Gi), with dynamic address allocation and the
// optional network-initiated activation path.
type GGSN struct {
	cfg  GGSNConfig
	pool *ipnet.Pool
	dm   *ss7.DialogueManager

	mu      sync.Mutex
	recs    *slab.Sharded[ggsnRec]
	byTID   *slab.Index[uint64]
	byAddr  *slab.Index[uint32] // PDP address in its ipnet.V4Key form
	names   slab.Syms[string]   // SGSN node names
	static  map[netip.Addr]gsmid.IMSI
	queued  map[netip.Addr][]ipnet.Packet
	nextSeq uint16
	// creating dedupes in-flight context creations while the Gc lookup
	// runs: a CreatePDPRequest retransmitted with the same sequence number
	// must not spawn a second HLR dialogue. Sim goroutine only, like dm.
	creating *txn.Table[createKey, struct{}]

	ulPackets, dlPackets, dropped uint64
	queueDrops                    uint64
}

// createKey identifies one in-flight PDP creation by requesting SGSN (its
// symbol in GGSN.names, high half) and GTP sequence number (retransmissions
// reuse both).
type createKey uint64

var _ sim.Node = (*GGSN)(nil)

// byDst resolves the context that owns a destination address. Callers hold
// g.mu.
func (g *GGSN) byDst(dst netip.Addr) *ggsnRec {
	key, v4 := ipnet.V4Key(dst)
	if !v4 {
		return nil
	}
	return g.recs.Get(g.byAddr.Get(key))
}

// NewGGSN returns a GGSN. It panics on an invalid pool prefix (topology
// construction error).
func NewGGSN(cfg GGSNConfig) *GGSN {
	if cfg.PoolPrefix == "" {
		cfg.PoolPrefix = "10.1.1.0"
	}
	if cfg.SigRTO == 0 {
		cfg.SigRTO = time.Second
	}
	pool, err := ipnet.NewPoolSize(cfg.PoolPrefix, cfg.PoolSize)
	if err != nil {
		panic(err)
	}
	return &GGSN{
		cfg:      cfg,
		pool:     pool,
		dm:       ss7.NewDialogueManager(cfg.ID),
		recs:     slab.NewSharded[ggsnRec](ggsnShards),
		byTID:    slab.NewIndex[uint64](slab.HashUint64),
		byAddr:   slab.NewIndex[uint32](slab.HashUint32),
		static:   make(map[netip.Addr]gsmid.IMSI),
		queued:   make(map[netip.Addr][]ipnet.Packet),
		creating: txn.New[createKey, struct{}](nil, nil), // untimed: the hooks never run
	}
}

// Retransmits returns the number of MAP request PDUs this GGSN has re-sent.
func (g *GGSN) Retransmits() uint64 { return g.dm.Retransmits() }

// TxnStats reports the MAP dialogue and create dedupe tables' lifetime counters.
func (g *GGSN) TxnStats(report func(plane string, s txn.Stats)) {
	report("MAP", g.dm.Stats())
	report("PDP create", g.creating.Stats())
}

// PendingCreates returns in-flight context creations still waiting on the
// Gc static-address lookup. Zero at quiescence.
func (g *GGSN) PendingCreates() int { return g.creating.InFlight() }

// OutstandingDialogues returns un-answered MAP invokes toward the HLR.
func (g *GGSN) OutstandingDialogues() int { return g.dm.Outstanding() }

// ID implements sim.Node.
func (g *GGSN) ID() sim.NodeID { return g.cfg.ID }

// ProvisionStatic records a static PDP address for a subscriber, enabling
// network-initiated activation toward it.
func (g *GGSN) ProvisionStatic(addr netip.Addr, imsi gsmid.IMSI) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.static[addr] = imsi
}

// ActiveContexts returns the number of PDP contexts — the GGSN-side
// residency cost measured by experiment C2.
func (g *GGSN) ActiveContexts() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs.Len()
}

// AddressOf returns the PDP address of a context by TID.
func (g *GGSN) AddressOf(tid gtp.TID) (netip.Addr, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.recs.Get(g.byTID.Get(uint64(tid)))
	if r == nil {
		return netip.Addr{}, false
	}
	return r.address, true
}

// Stats returns (uplink, downlink, dropped) packet counts.
func (g *GGSN) Stats() (ul, dl, dropped uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ulPackets, g.dlPackets, g.dropped
}

// QueueDrops returns the number of downlink packets rejected because a
// destination's activation queue was already at maxQueuedPerAddr.
func (g *GGSN) QueueDrops() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queueDrops
}

// QueuedPackets returns the number of downlink packets currently parked
// awaiting network-initiated activation. Zero at quiescence.
func (g *GGSN) QueuedPackets() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, q := range g.queued {
		n += len(q)
	}
	return n
}

// Audit reports every transient record this GGSN holds, by kind, plus its
// storage audit — all zero at quiescence. netsim's leak gate walks it.
func (g *GGSN) Audit(report func(kind string, n int)) {
	report("pending creates", g.PendingCreates())
	report("open dialogues", g.OutstandingDialogues())
	report("queued activation packets", g.QueuedPackets())
	report("slab imbalance", g.SlabImbalance())
}

// Footprint is the memory the PDP context store holds, in bytes: slab chunks
// plus index tables, and the two transaction tables.
func (g *GGSN) Footprint() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.recs.Bytes() + g.byTID.Bytes() + g.byAddr.Bytes() + g.dm.Bytes() + g.creating.Bytes()
}

// SlabImbalance audits the slab storage: per-shard occupancy must balance
// and both indexes must resolve to live records that agree with the key.
// Non-zero means a context leaked or was lost.
func (g *GGSN) SlabImbalance() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	imb := g.dm.Occupancy().Imbalance() + g.creating.Occupancy().Imbalance()
	perShard := make([]int, ggsnShards)
	g.byTID.Range(func(k uint64, h slab.Handle) bool {
		r := g.recs.Get(h)
		if r == nil || uint64(r.tid) != k {
			imb++
			return true
		}
		perShard[h.Shard()]++
		return true
	})
	for _, a := range g.recs.Audit() {
		imb += a.Imbalance() + abs(perShard[a.Shard]-a.Live)
	}
	g.byAddr.Range(func(k uint32, h slab.Handle) bool {
		r := g.recs.Get(h)
		if r == nil {
			imb++
		} else if key, v4 := ipnet.V4Key(r.address); !v4 || key != k {
			imb++
		}
		return true
	})
	return imb
}

// Receive implements sim.Node.
func (g *GGSN) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case gtp.CreatePDPRequest:
		g.handleCreate(env, from, m)
	case gtp.DeletePDPRequest:
		g.handleDelete(env, from, m)
	case gtp.TPDU:
		g.handleUplink(env, m)
	case *gtp.TPDU:
		// Voice fast path: the SGSN reuses a pointer message per realtime
		// context to avoid the interface-boxing allocation per frame.
		g.handleUplink(env, *m)
	case gtp.EchoRequest:
		env.Send(g.cfg.ID, from, gtp.EchoResponse{Seq: m.Seq})
	case gtp.PDUNotifyResponse:
		// Informational; queued packets flush when the context appears.
	case ipnet.Packet:
		g.handleDownlink(env, m)
	case sigmap.SendRoutingInfoForGPRSAck:
		g.dm.Resolve(m.Invoke, msg)
	}
}

// handleCreate creates a PDP context. When the HLR is reachable over Gc and
// no explicit address was requested, the GGSN first retrieves the HLR record
// (paper step 1.3) to learn a provisioned static address.
func (g *GGSN) handleCreate(env *sim.Env, sgsn sim.NodeID, m gtp.CreatePDPRequest) {
	finish := func(staticAddr string) {
		g.finishCreate(env, sgsn, m, staticAddr)
	}
	if m.RequestedAddress != "" {
		finish(m.RequestedAddress)
		return
	}
	if g.cfg.HLR == "" {
		finish("")
		return
	}
	// A retransmitted CreatePDPRequest (same SGSN, same sequence number)
	// while the Gc lookup is in flight is dropped; the pending lookup will
	// answer it.
	g.mu.Lock()
	key := createKey(g.names.ID(string(sgsn)))<<32 | createKey(m.Seq)
	g.mu.Unlock()
	if g.creating.Begin(env, key, txn.Policy{}) == nil {
		return
	}
	invoke := g.dm.InvokeRetry(func(resp sim.Message, ok bool) {
		g.creating.Take(key)
		static := ""
		if ack, isAck := resp.(sigmap.SendRoutingInfoForGPRSAck); ok && isAck && ack.Cause == sigmap.CauseNone {
			static = ack.StaticPDPAddress
		}
		finish(static)
	})
	g.dm.Transmit(env, invoke, g.cfg.HLR,
		sigmap.SendRoutingInfoForGPRS{Invoke: invoke, IMSI: m.IMSI},
		g.cfg.SigRTO, g.cfg.SigRetries)
}

func (g *GGSN) finishCreate(env *sim.Env, sgsn sim.NodeID, m gtp.CreatePDPRequest, staticAddr string) {
	var addr netip.Addr
	dynamic := false
	if staticAddr != "" {
		parsed, err := netip.ParseAddr(staticAddr)
		if err != nil || !parsed.Is4() {
			env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{Seq: m.Seq, Cause: gtp.CauseSystemFailure})
			return
		}
		addr = parsed
	} else {
		allocated, err := g.pool.Allocate()
		if err != nil {
			env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{Seq: m.Seq, Cause: gtp.CauseNoResources})
			return
		}
		addr = allocated
		dynamic = true
	}

	tid := gtp.MakeTID(m.IMSI, m.NSAPI)
	negotiated := gtp.Negotiate(m.QoS, g.cfg.MaxKbps)
	g.mu.Lock()
	if existing := g.recs.Get(g.byTID.Get(uint64(tid))); existing != nil {
		sameSGSN := g.names.Val(existing.sgsn) == string(sgsn)
		exAddr, exQoS := existing.address, existing.qos
		g.mu.Unlock()
		if dynamic {
			g.pool.Release(addr)
		}
		if sameSGSN {
			// Retransmitted create whose response was lost: re-acknowledge
			// the context already installed instead of failing it (GSM
			// 09.60 §7.4.1 treats a repeated request as the same one).
			env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{
				Seq: m.Seq, Cause: gtp.CauseAccepted, TID: tid,
				Address: exAddr.String(), QoS: exQoS,
			})
			return
		}
		env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{Seq: m.Seq, Cause: gtp.CauseSystemFailure})
		return
	}
	h, r := g.recs.Alloc(int(slab.HashUint64(uint64(tid)) & (ggsnShards - 1)))
	r.imsi = m.IMSI.Pack()
	r.nsapi = m.NSAPI
	r.tid = tid
	r.sgsn = g.names.ID(string(sgsn))
	r.address = addr
	r.qos = negotiated
	r.dynamic = dynamic
	g.byTID.Put(uint64(tid), h)
	key, _ := ipnet.V4Key(addr) // IPv4 by construction: pool-allocated, or checked above
	g.byAddr.Put(key, h)
	queued := g.queued[addr]
	delete(g.queued, addr)
	g.mu.Unlock()

	env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{
		Seq: m.Seq, Cause: gtp.CauseAccepted, TID: tid, Address: addr.String(),
		QoS: negotiated,
	})
	// Flush traffic that was waiting on network-initiated activation.
	for _, pkt := range queued {
		g.handleDownlink(env, pkt)
	}
}

func (g *GGSN) handleDelete(env *sim.Env, sgsn sim.NodeID, m gtp.DeletePDPRequest) {
	g.mu.Lock()
	h := g.byTID.Get(uint64(m.TID))
	r := g.recs.Get(h)
	ok := r != nil
	var release netip.Addr
	if ok {
		g.byTID.Delete(uint64(m.TID))
		key, _ := ipnet.V4Key(r.address)
		g.byAddr.Delete(key)
		if r.dynamic {
			release = r.address
		}
		r.media = nil
		g.recs.Free(h)
	}
	g.mu.Unlock()
	if release.IsValid() {
		g.pool.Release(release)
	}

	cause := gtp.CauseAccepted
	if !ok {
		cause = gtp.CauseNotFound
	}
	env.Send(g.cfg.ID, sgsn, gtp.DeletePDPResponse{Seq: m.Seq, Cause: cause})
}

// handleUplink decapsulates a T-PDU and forwards the inner packet to Gi —
// or hairpins it straight into another tunnel when the destination is a PDP
// address served by this GGSN (MS-to-MS traffic never leaves the gateway).
func (g *GGSN) handleUplink(env *sim.Env, m gtp.TPDU) {
	pkt, err := ipnet.Unmarshal(m.Payload)
	if err != nil {
		return
	}
	g.mu.Lock()
	src := g.recs.Get(g.byTID.Get(uint64(m.TID)))
	known := src != nil
	if known {
		g.ulPackets++
	} else {
		g.dropped++
	}
	g.mu.Unlock()
	if !known {
		return
	}
	g.mu.Lock()
	dst := g.byDst(pkt.Dst)
	local := dst != nil
	var med *ggsnMedia
	var tid gtp.TID
	var sgsn sim.NodeID
	if local && src.qos.Realtime &&
		(pkt.DstPort == ipnet.PortRTP || pkt.SrcPort == ipnet.PortRTP) {
		// Voice-to-voice hairpin: forward the uplink T-PDU bytes as-is
		// (they already are the canonically encoded inner packet) through
		// the destination context's reusable downlink message. The
		// destination is whichever context owns the peer's registered
		// media address — its signalling context when the endpoint splits
		// signalling and voice across two PDPs — so only the source side
		// (always the voice context) gates on the realtime profile; the
		// RTP port check is what keeps non-media packets off the reusable
		// message.
		if dst.media == nil {
			dst.media = &ggsnMedia{}
		}
		med, tid, sgsn = dst.media, dst.tid, sim.NodeID(g.names.Val(dst.sgsn))
		g.dlPackets++
	}
	g.mu.Unlock()
	if med != nil {
		med.tpdu = gtp.TPDU{TID: tid, Payload: m.Payload}
		env.Send(g.cfg.ID, sgsn, &med.tpdu)
		return
	}
	if local {
		g.handleDownlink(env, pkt)
		return
	}
	env.Send(g.cfg.ID, g.cfg.Gi, pkt)
}

// handleDownlink routes a Gi-side packet into the right tunnel; with no
// active context it either triggers network-initiated activation (static,
// provisioned, feature enabled) or drops.
func (g *GGSN) handleDownlink(env *sim.Env, pkt ipnet.Packet) {
	g.mu.Lock()
	r := g.byDst(pkt.Dst)
	active := r != nil
	var tid gtp.TID
	var sgsn sim.NodeID
	if active {
		tid = r.tid
		sgsn = sim.NodeID(g.names.Val(r.sgsn))
		g.dlPackets++
	}
	g.mu.Unlock()

	if active {
		env.Send(g.cfg.ID, sgsn, gtp.TPDU{TID: tid, Payload: pkt.Marshal()})
		return
	}

	g.mu.Lock()
	imsi, isStatic := g.static[pkt.Dst]
	canNotify := g.cfg.NetworkInitiatedActivation && isStatic && g.cfg.HLR != ""
	if canNotify {
		if len(g.queued[pkt.Dst]) >= maxQueuedPerAddr {
			// Queue full: shed the newest packet rather than grow without
			// bound while the subscriber is paged.
			g.queueDrops++
			g.dropped++
			g.mu.Unlock()
			return
		}
		g.queued[pkt.Dst] = append(g.queued[pkt.Dst], pkt)
	} else {
		g.dropped++
	}
	alreadyNotifying := canNotify && len(g.queued[pkt.Dst]) > 1
	g.mu.Unlock()

	if !canNotify || alreadyNotifying {
		return
	}
	// Gc: find the serving SGSN, then ask it to have the MS activate.
	invoke := g.dm.InvokeRetry(func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendRoutingInfoForGPRSAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone || ack.SGSN == "" {
			g.mu.Lock()
			g.dropped += uint64(len(g.queued[pkt.Dst]))
			delete(g.queued, pkt.Dst)
			g.mu.Unlock()
			return
		}
		g.mu.Lock()
		g.nextSeq++
		seq := g.nextSeq
		g.mu.Unlock()
		env.Send(g.cfg.ID, sim.NodeID(ack.SGSN), gtp.PDUNotifyRequest{
			Seq: seq, IMSI: imsi, Address: pkt.Dst.String(),
		})
	})
	g.dm.Transmit(env, invoke, g.cfg.HLR,
		sigmap.SendRoutingInfoForGPRS{Invoke: invoke, IMSI: imsi},
		g.cfg.SigRTO, g.cfg.SigRetries)
}
