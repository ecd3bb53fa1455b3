package gprs

import (
	"net/netip"
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

	recs    *slab.Slab[ggsnRec]
	byTID   *slab.RowIndex[uint64, ggsnRec]
	byAddr  *slab.RowIndex[uint32, ggsnRec] // PDP address in its ipnet.V4Key form
	names   slab.Syms[string]               // SGSN node names
	static  map[netip.Addr]gsmid.IMSI
	queued  map[netip.Addr][]ipnet.Packet
	nextSeq uint16
	// creating dedupes in-flight context creations while the Gc lookup
	// runs: a CreatePDPRequest retransmitted with the same sequence number
	// must not spawn a second HLR dialogue.
	creating *txn.Table[createKey, struct{}]

	ulPackets, dlPackets, dropped uint64
	queueDrops                    uint64
}

// createKey identifies one in-flight PDP creation by requesting SGSN (its
// symbol in GGSN.names, high half) and GTP sequence number (retransmissions
// reuse both).
type createKey uint64

var _ sim.Node = (*GGSN)(nil)

// byDst resolves the context that owns a destination address.
func (g *GGSN) byDst(dst netip.Addr) *ggsnRec {
	key, v4 := ipnet.V4Key(dst)
	if !v4 {
		return nil
	}
	_, r := g.byAddr.Get(key)
	return r
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
	recs := slab.NewSlab[ggsnRec]()
	return &GGSN{
		cfg:   cfg,
		pool:  pool,
		dm:    ss7.NewDialogueManager(cfg.ID),
		recs:  recs,
		byTID: slab.NewRowIndex(recs, slab.HashUint64, func(k uint64, r *ggsnRec) bool { return uint64(r.tid) == k }),
		byAddr: slab.NewRowIndex(recs, slab.HashUint32, func(k uint32, r *ggsnRec) bool {
			key, v4 := ipnet.V4Key(r.address)
			return v4 && key == k
		}),
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
	g.static[addr] = imsi
}

// ActiveContexts returns the number of PDP contexts — the GGSN-side
// residency cost measured by experiment C2.
func (g *GGSN) ActiveContexts() int {
	return g.recs.Len()
}

// AddressOf returns the PDP address of a context by TID.
func (g *GGSN) AddressOf(tid gtp.TID) (netip.Addr, bool) {
	_, r := g.byTID.Get(uint64(tid))
	if r == nil {
		return netip.Addr{}, false
	}
	return r.address, true
}

// Stats returns (uplink, downlink, dropped) packet counts.
func (g *GGSN) Stats() (ul, dl, dropped uint64) {
	return g.ulPackets, g.dlPackets, g.dropped
}

// QueueDrops returns the number of downlink packets rejected because a
// destination's activation queue was already at maxQueuedPerAddr.
func (g *GGSN) QueueDrops() uint64 {
	return g.queueDrops
}

// QueuedPackets returns the number of downlink packets currently parked
// awaiting network-initiated activation. Zero at quiescence.
func (g *GGSN) QueuedPackets() int {
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
	return g.recs.Bytes() + g.byTID.Bytes() + g.byAddr.Bytes() + g.dm.Bytes() + g.creating.Bytes()
}

// SlabImbalance audits the slab storage: occupancy must balance and both
// indexes must resolve to live records that agree with the key. Non-zero
// means a context leaked or was lost.
func (g *GGSN) SlabImbalance() int {
	return g.dm.Occupancy().Imbalance() + g.creating.Occupancy().Imbalance() +
		g.byTID.Audit() + g.byAddr.Stale()
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
	key := createKey(g.names.ID(string(sgsn)))<<32 | createKey(m.Seq)
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
	if _, existing := g.byTID.Get(uint64(tid)); existing != nil {
		if dynamic {
			g.pool.Release(addr)
		}
		if g.names.Val(existing.sgsn) == string(sgsn) {
			// Retransmitted create whose response was lost: re-acknowledge
			// the context already installed instead of failing it (GSM
			// 09.60 §7.4.1 treats a repeated request as the same one).
			env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{
				Seq: m.Seq, Cause: gtp.CauseAccepted, TID: tid,
				Address: existing.address.String(), QoS: existing.qos,
			})
			return
		}
		env.Send(g.cfg.ID, sgsn, gtp.CreatePDPResponse{Seq: m.Seq, Cause: gtp.CauseSystemFailure})
		return
	}
	h, r := g.recs.Alloc()
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
	h, r := g.byTID.Get(uint64(m.TID))
	if r == nil {
		env.Send(g.cfg.ID, sgsn, gtp.DeletePDPResponse{Seq: m.Seq, Cause: gtp.CauseNotFound})
		return
	}
	g.byTID.Delete(uint64(m.TID))
	key, _ := ipnet.V4Key(r.address)
	g.byAddr.Delete(key)
	if r.dynamic {
		g.pool.Release(r.address)
	}
	r.media = nil
	g.recs.Free(h)
	env.Send(g.cfg.ID, sgsn, gtp.DeletePDPResponse{Seq: m.Seq, Cause: gtp.CauseAccepted})
}

// handleUplink decapsulates a T-PDU and forwards the inner packet to Gi —
// or hairpins it straight into another tunnel when the destination is a PDP
// address served by this GGSN (MS-to-MS traffic never leaves the gateway).
// It routes on the header alone (ipnet.Peek, which rejects exactly what
// Unmarshal rejects): a hairpinned packet goes on as the uplink's payload
// bytes, which already are its canonical encoding, and only a packet
// leaving on Gi is decoded.
func (g *GGSN) handleUplink(env *sim.Env, m gtp.TPDU) {
	h, _, ok := ipnet.Peek(m.Payload)
	if !ok {
		return
	}
	_, src := g.byTID.Get(uint64(m.TID))
	if src == nil {
		g.dropped++
		return
	}
	g.ulPackets++
	dst := g.byDst(h.Dst)
	if dst == nil {
		pkt, _ := ipnet.Unmarshal(m.Payload) // cannot fail: Peek accepted it
		env.Send(g.cfg.ID, g.cfg.Gi, pkt)
		return
	}
	g.dlPackets++
	sgsn := sim.NodeID(g.names.Val(dst.sgsn))
	if src.qos.Realtime && h.IsRTP() {
		// Voice-to-voice hairpin: the destination context's reusable
		// downlink message carries the frame. The destination is whichever
		// context owns the peer's registered media address — its
		// signalling context when the endpoint splits signalling and voice
		// across two PDPs — so only the source side (always the voice
		// context) gates on the realtime profile; the RTP port check is
		// what keeps non-media packets off the reusable message.
		if dst.media == nil {
			dst.media = &ggsnMedia{}
		}
		dst.media.tpdu = gtp.TPDU{TID: dst.tid, Payload: m.Payload}
		sim.SendReused(env, g.cfg.ID, sgsn, &dst.media.tpdu)
		return
	}
	env.Send(g.cfg.ID, sgsn, gtp.TPDU{TID: dst.tid, Payload: m.Payload})
}

// handleDownlink routes a Gi-side packet into the right tunnel; with no
// active context it either triggers network-initiated activation (static,
// provisioned, feature enabled) or drops.
func (g *GGSN) handleDownlink(env *sim.Env, pkt ipnet.Packet) {
	if r := g.byDst(pkt.Dst); r != nil {
		g.dlPackets++
		env.Send(g.cfg.ID, sim.NodeID(g.names.Val(r.sgsn)), gtp.TPDU{TID: r.tid, Payload: pkt.Marshal()})
		return
	}

	imsi, isStatic := g.static[pkt.Dst]
	if !g.cfg.NetworkInitiatedActivation || !isStatic || g.cfg.HLR == "" {
		g.dropped++
		return
	}
	if len(g.queued[pkt.Dst]) >= maxQueuedPerAddr {
		// Queue full: shed the newest packet rather than grow without
		// bound while the subscriber is paged.
		g.queueDrops++
		g.dropped++
		return
	}
	g.queued[pkt.Dst] = append(g.queued[pkt.Dst], pkt)
	if len(g.queued[pkt.Dst]) > 1 {
		return // an activation is already under way
	}
	// Gc: find the serving SGSN, then ask it to have the MS activate.
	invoke := g.dm.InvokeRetry(func(resp sim.Message, ok bool) {
		ack, isAck := resp.(sigmap.SendRoutingInfoForGPRSAck)
		if !ok || !isAck || ack.Cause != sigmap.CauseNone || ack.SGSN == "" {
			g.dropped += uint64(len(g.queued[pkt.Dst]))
			delete(g.queued, pkt.Dst)
			return
		}
		g.nextSeq++
		env.Send(g.cfg.ID, sim.NodeID(ack.SGSN), gtp.PDUNotifyRequest{
			Seq: g.nextSeq, IMSI: imsi, Address: pkt.Dst.String(),
		})
	})
	g.dm.Transmit(env, invoke, g.cfg.HLR,
		sigmap.SendRoutingInfoForGPRS{Invoke: invoke, IMSI: imsi},
		g.cfg.SigRTO, g.cfg.SigRetries)
}
