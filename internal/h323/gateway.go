package h323

import (
	"net/netip"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

// GatewayConfig parameterises an H.323/PSTN gateway.
type GatewayConfig struct {
	ID sim.NodeID
	// Addr is the gateway's IP address on the H.323 LAN.
	Addr netip.Addr
	// Router is the LAN router node.
	Router sim.NodeID
	// Gatekeeper is the GK's IP address.
	Gatekeeper netip.Addr
	// Dir resolves peer addresses for tracing.
	Dir *Directory
	// Exchange and Trunks enable the outbound direction (paper §4: an MS
	// calling "a traditional telephone set in the PSTN"): Q.931 Setups
	// admitted toward this gateway become IAMs on Trunks toward Exchange.
	Exchange sim.NodeID
	Trunks   *isup.TrunkGroup
}

// gwQKey scopes a Q.931 call reference to the peer that uses it.
type gwQKey struct {
	peer netip.Addr
	ref  uint16
}

type gwCall struct {
	ref       uint32 // ISUP call reference
	q931Ref   uint16
	cic       isup.CIC
	exchange  sim.NodeID
	remoteSig netip.Addr
	remoteMed q931.MediaAddr
	// pstn is the PSTN party the gateway stands in for (the caller of a
	// call from the PSTN, the called party of a call to it), remote the
	// H.323 party: the RAS requests, Setup and IAM name the call by them.
	pstn     gsmid.MSISDN
	remote   gsmid.MSISDN
	answered bool
	// trunks is set on outbound (H.323->PSTN) calls, where the gateway
	// seized the circuit and must release it.
	trunks  *isup.TrunkGroup
	rtpSeq  uint16
	seqDown uint32
}

// Gateway bridges the PSTN into the H.323 network — the element that makes
// tromboning elimination work (paper Fig 8): a local exchange hands it a
// call, it probes the gatekeeper's address-translation table (LRQ), and on
// a hit completes the call as VoIP; on a miss it refuses the trunk so the
// exchange falls back to the international PSTN route.
type Gateway struct {
	cfg GatewayConfig
	ep  *Endpoint

	nextSeq uint32
	nextRef uint16
	// txns holds the outstanding RAS requests. They are one-shot: sent once
	// and never expired.
	txns   *Transactions[*gwHost, *gwCall]
	byISUP map[uint32]*gwCall
	// byQ931 keys calls by (peer signalling address, wire reference):
	// Q.931 references are scoped per signalling connection, so two
	// peers may use the same value concurrently.
	byQ931 map[gwQKey]*gwCall

	voipCompleted, voipRefused uint64
}

var _ sim.Node = (*Gateway)(nil)

// NewGateway returns a gateway.
func NewGateway(cfg GatewayConfig) *Gateway {
	g := &Gateway{
		cfg:    cfg,
		byISUP: make(map[uint32]*gwCall),
		byQ931: make(map[gwQKey]*gwCall),
	}
	g.txns = NewTransactions[*gwHost, *gwCall]((*gwHost)(g), cfg.Gatekeeper, txn.Policy{})
	g.ep = &Endpoint{
		Node: cfg.ID,
		Addr: cfg.Addr,
		Dir:  cfg.Dir,
		Send: func(env *sim.Env, pkt ipnet.Packet) {
			env.Send(cfg.ID, cfg.Router, pkt)
		},
	}
	return g
}

// ID implements sim.Node.
func (g *Gateway) ID() sim.NodeID { return g.cfg.ID }

// Stats returns (completed-as-VoIP, refused-to-PSTN) call counts.
func (g *Gateway) Stats() (completed, refused uint64) {
	return g.voipCompleted, g.voipRefused
}

// Receive implements sim.Node.
func (g *Gateway) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.IAM:
		g.handleIAM(env, from, m)
	case isup.ACM:
		if call, ok := g.byISUP[m.CallRef]; ok {
			g.ep.SendQ931(env, call.remoteSig, q931.Alerting{CallRef: call.q931Ref})
		}
	case isup.ANM:
		if call, ok := g.byISUP[m.CallRef]; ok {
			call.answered = true
			g.voipCompleted++
			g.ep.SendQ931(env, call.remoteSig, q931.Connect{
				CallRef: call.q931Ref,
				Media:   q931.MediaAddr{Addr: g.cfg.Addr, Port: ipnet.PortRTP},
			})
		}
	case isup.REL:
		g.handleTrunkREL(env, from, m)
	case isup.RLC:
	case isup.TrunkFrame:
		g.trunkVoice(env, m)
	case ipnet.Packet:
		g.handleIP(env, m)
	}
}

// gwHost is the gateway as the host of its own transactions. Its RAS
// requests are untimed and it sends its Setup once, so no hook ever
// retransmits or expires anything.
type gwHost Gateway

// gwRAS is one of the gateway's RAS requests in flight.
type gwRAS = RAS[*gwHost, *gwCall]

func (h *gwHost) Endpoint(slab.Handle) (Endpoint, bool) { return *h.ep, true }

func (h *gwHost) CallEndpoint(call *gwCall) (Endpoint, netip.Addr, bool) {
	return *h.ep, call.remoteSig, true
}

func (h *gwHost) Q931Expired(*sim.Env, *gwCall) {}

// Audit reports the gateway's transient state for netsim's leak gate.
func (g *Gateway) Audit(report func(kind string, n int)) {
	report("pending RAS", g.txns.PendingRAS())
	report("transaction record imbalance", g.txns.Imbalance())
}

// handleIAM is Fig 8 steps (1)-(2): the local exchange routes the call in;
// the gateway checks the gatekeeper for the called party.
func (g *Gateway) handleIAM(env *sim.Env, exchange sim.NodeID, m isup.IAM) {
	call := &gwCall{
		ref: m.CallRef, cic: m.CIC, exchange: exchange,
		pstn: m.Calling, remote: m.Called,
	}
	g.byISUP[m.CallRef] = call

	g.nextSeq++
	g.txns.SendRAS(env, 0, call, LRQ{Seq: g.nextSeq, Alias: call.remote}, gwLocateDone)
}

// gwLocateDone consumes the gatekeeper's answer to the Fig 8 step (2)
// address-translation probe.
func gwLocateDone(env *sim.Env, r gwRAS, msg sim.Message) {
	g, call := (*Gateway)(r.Host), r.Call
	switch lm := msg.(type) {
	case LCF:
		g.placeVoIPCall(env, call, lm)
	case LRJ:
		// Fig 8 miss arm: "the GK will instruct y to connect to the
		// international telephone network as a normal PSTN call."
		g.voipRefused++
		delete(g.byISUP, call.ref)
		env.Send(g.cfg.ID, call.exchange, isup.REL{
			CIC: call.cic, CallRef: call.ref, Cause: isup.CauseUnallocatedNumber,
		})
	}
}

// placeVoIPCall is Fig 8 step (3): admission plus Q.931 setup toward the
// registered endpoint (the VMSC hosting the roamer).
func (g *Gateway) placeVoIPCall(env *sim.Env, call *gwCall, lcf LCF) {
	g.nextRef++
	call.q931Ref = g.nextRef
	call.remoteSig = lcf.SignalAddr
	g.byQ931[gwQKey{call.remoteSig, call.q931Ref}] = call

	g.nextSeq++
	g.txns.SendRAS(env, 0, call, ARQ{
		Seq: g.nextSeq, CallerAlias: call.pstn, CalledAlias: call.remote, CallRef: call.q931Ref,
	}, gwAdmitDone)
}

// gwAdmitDone completes the inbound call's admission: setup toward the
// registered endpoint, or release back to the exchange.
func gwAdmitDone(env *sim.Env, r gwRAS, msg sim.Message) {
	g, call := (*Gateway)(r.Host), r.Call
	switch msg.(type) {
	case ACF:
		g.ep.SendQ931(env, call.remoteSig, q931.Setup{
			CallRef: call.q931Ref, Called: call.remote, Calling: call.pstn,
			Media: q931.MediaAddr{Addr: g.cfg.Addr, Port: ipnet.PortRTP},
		})
	case ARJ:
		g.voipRefused++
		delete(g.byISUP, call.ref)
		delete(g.byQ931, gwQKey{call.remoteSig, call.q931Ref})
		env.Send(g.cfg.ID, call.exchange, isup.REL{
			CIC: call.cic, CallRef: call.ref, Cause: isup.CauseUnallocatedNumber,
		})
	}
}

func (g *Gateway) handleIP(env *sim.Env, pkt ipnet.Packet) {
	in, ok := Classify(pkt)
	if !ok {
		return
	}
	switch {
	case in.RAS != nil:
		g.txns.AnswerRAS(env, in.RAS)
	case in.Q931 != nil:
		g.handleQ931(env, pkt, in.Q931)
	case in.RTPPayload != nil:
		g.downlinkVoice(env, pkt.Src, in.RTPPayload)
	}
}

func (g *Gateway) handleQ931(env *sim.Env, pkt ipnet.Packet, msg sim.Message) {
	if setup, isSetup := msg.(q931.Setup); isSetup {
		g.handleOutboundSetup(env, pkt, setup)
		return
	}
	ref, ok := q931.CallRefOf(msg)
	if !ok {
		return
	}
	call, found := g.byQ931[gwQKey{pkt.Src, ref}]
	if !found {
		return
	}
	switch m := msg.(type) {
	case q931.CallProceeding:
	case q931.Alerting:
		env.Send(g.cfg.ID, call.exchange, isup.ACM{CIC: call.cic, CallRef: call.ref})
	case q931.Connect:
		// Ack every copy so the answering side's T313 stops; a lost ack
		// means the peer retransmits, so the count must dedupe.
		g.ep.SendQ931(env, pkt.Src, q931.ConnectAck{CallRef: ref})
		if call.answered {
			return
		}
		call.remoteMed = m.Media
		call.answered = true
		g.voipCompleted++
		env.Send(g.cfg.ID, call.exchange, isup.ANM{CIC: call.cic, CallRef: call.ref})
	case q931.ConnectAck:
		// The gateway answers on ISUP ANM without a Q.931 retransmit
		// timer; nothing to stop.
	case q931.ReleaseComplete:
		g.disengage(env, call)
		g.drop(call)
		env.Send(g.cfg.ID, call.exchange, isup.REL{
			CIC: call.cic, CallRef: call.ref, Cause: isup.CauseNormalClearing,
		})
	}
}

func (g *Gateway) handleTrunkREL(env *sim.Env, from sim.NodeID, m isup.REL) {
	env.Send(g.cfg.ID, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
	call, ok := g.byISUP[m.CallRef]
	if !ok {
		return
	}
	g.ep.SendQ931(env, call.remoteSig, q931.ReleaseComplete{
		CallRef: call.q931Ref, Cause: q931.CauseNormal,
	})
	g.disengage(env, call)
	g.drop(call)
}

// handleOutboundSetup runs the paper §4 PSTN-termination direction: a
// Q.931 Setup admitted toward the gateway becomes an IAM on the trunk to
// the local exchange.
func (g *Gateway) handleOutboundSetup(env *sim.Env, pkt ipnet.Packet, m q931.Setup) {
	if _, dup := g.byQ931[gwQKey{pkt.Src, m.CallRef}]; dup {
		// Retransmitted Setup: the original CallProceeding may have been
		// lost, so re-ack to stop the caller's T303.
		g.ep.SendQ931(env, pkt.Src, q931.CallProceeding{CallRef: m.CallRef})
		return
	}
	refuse := func() {
		g.voipRefused++
		g.ep.SendQ931(env, pkt.Src, q931.ReleaseComplete{
			CallRef: m.CallRef, Cause: q931.CauseResourcesUnavail,
		})
	}
	if g.cfg.Exchange == "" {
		refuse()
		return
	}
	var cic isup.CIC
	if g.cfg.Trunks != nil {
		seized, err := g.cfg.Trunks.Seize()
		if err != nil {
			refuse()
			return
		}
		cic = seized
	}
	g.nextRef++
	call := &gwCall{
		// The high bit keeps gateway-allocated ISUP references out of
		// the space the PSTN side uses.
		ref:       0x80000000 | uint32(g.nextRef),
		q931Ref:   m.CallRef,
		cic:       cic,
		exchange:  g.cfg.Exchange,
		remoteSig: pkt.Src,
		remoteMed: m.Media,
		pstn:      m.Called,
		remote:    m.Calling,
		trunks:    g.cfg.Trunks,
	}
	g.byISUP[call.ref] = call
	g.byQ931[gwQKey{call.remoteSig, call.q931Ref}] = call
	g.ep.SendQ931(env, pkt.Src, q931.CallProceeding{CallRef: m.CallRef})
	env.Send(g.cfg.ID, g.cfg.Exchange, isup.IAM{
		CIC: cic, CallRef: call.ref, Called: call.pstn, Calling: call.remote,
	})
}

// disengage names the call as an endpoint does, with the gateway in the
// PSTN party's place.
func (g *Gateway) disengage(env *sim.Env, call *gwCall) {
	g.nextSeq++
	g.ep.SendRAS(env, g.cfg.Gatekeeper, DRQ{Seq: g.nextSeq, Alias: call.pstn, CallRef: call.q931Ref, Peer: call.remote})
}

func (g *Gateway) drop(call *gwCall) {
	if call.trunks != nil {
		call.trunks.Release(call.cic)
	}
	delete(g.byISUP, call.ref)
	delete(g.byQ931, gwQKey{call.remoteSig, call.q931Ref})
}

// trunkVoice transcodes PSTN-side speech into RTP toward the H.323 leg.
func (g *Gateway) trunkVoice(env *sim.Env, m isup.TrunkFrame) {
	call, ok := g.byISUP[m.CallRef]
	if !ok || !call.answered || !call.remoteMed.Valid() {
		return
	}
	payload := codec.Transcode(m.Payload)
	env.After(codec.TranscodeCost, func() {
		call.rtpSeq++
		p := rtp.Packet{
			PayloadType: rtp.PayloadTypeGSM,
			Seq:         call.rtpSeq,
			Timestamp:   rtp.TimestampAt(env.Now()),
			SSRC:        uint32(call.q931Ref),
			Payload:     payload,
		}
		g.ep.SendRTP(env, call.remoteMed, p.Marshal())
	})
}

// downlinkVoice transcodes RTP into PSTN-side trunk frames. The gateway has
// one RTP sink; streams are demultiplexed by SSRC (the Q.931 reference).
func (g *Gateway) downlinkVoice(env *sim.Env, src netip.Addr, payload []byte) {
	p, err := rtp.Unmarshal(payload)
	if err != nil {
		return
	}
	var call *gwCall
	// Media SSRCs carry the sender's wire reference; scope to the sender
	// (signalling and media share an address for every endpoint here).
	for key, c := range g.byQ931 {
		if key.ref == uint16(p.SSRC) && (key.peer == src || c.remoteMed.Addr == src) {
			call = c
			break
		}
	}
	if call == nil {
		// Single-call fallback: deliver to the only active call.
		if len(g.byQ931) != 1 {
			return
		}
		for _, c := range g.byQ931 {
			call = c
		}
	}
	frame := codec.Transcode(p.Payload)
	env.After(codec.TranscodeCost, func() {
		call.seqDown++
		env.Send(g.cfg.ID, call.exchange, isup.TrunkFrame{
			CIC: call.cic, CallRef: call.ref, Seq: call.seqDown, Payload: frame,
		})
	})
}
