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

type gwCall struct {
	ref      uint32 // ISUP call reference
	leg      Leg
	cic      isup.CIC
	exchange sim.NodeID
	// pstn is the PSTN party the gateway stands in for (the caller of a
	// call from the PSTN, the called party of a call to it), remote the
	// H.323 party: the RAS requests, Setup and IAM name the call by them.
	pstn   gsmid.MSISDN
	remote gsmid.MSISDN
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
	// txns holds the outstanding RAS requests and the calls' Q.931 cycles.
	// They run on a zero policy: sent once and never expired.
	txns   *Transactions[*gwHost, *gwCall]
	byISUP map[uint32]*gwCall
	// byQ931 keys calls by their leg's peer and wire reference.
	byQ931 map[legKey]*gwCall

	voipCompleted, voipRefused uint64
}

var _ sim.Node = (*Gateway)(nil)

// NewGateway returns a gateway.
func NewGateway(cfg GatewayConfig) *Gateway {
	g := &Gateway{
		cfg:    cfg,
		byISUP: make(map[uint32]*gwCall),
		byQ931: make(map[legKey]*gwCall),
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
			g.txns.Alert(env, call)
		}
	case isup.ANM:
		if call, ok := g.byISUP[m.CallRef]; ok &&
			g.txns.Connect(env, call, q931.MediaAddr{Addr: g.cfg.Addr, Port: ipnet.PortRTP}) {
			g.voipCompleted++
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

// gwHost is the gateway as the host of its own transactions. They are
// untimed, so nothing is ever retransmitted or expired.
type gwHost Gateway

// gwRAS is one of the gateway's RAS requests in flight.
type gwRAS = RAS[*gwHost, *gwCall]

func (h *gwHost) Endpoint(slab.Handle) (Endpoint, bool) { return *h.ep, true }

func (h *gwHost) CallLeg(call *gwCall) (Endpoint, *Leg, bool) { return *h.ep, &call.leg, true }

// Released carries the H.323 side's release onto the trunk.
func (h *gwHost) Released(env *sim.Env, call *gwCall) {
	g := (*Gateway)(h)
	g.disengage(env, call)
	g.drop(call)
	env.Send(g.cfg.ID, call.exchange, isup.REL{
		CIC: call.cic, CallRef: call.ref, Cause: isup.CauseNormalClearing,
	})
}

// TxnStats reports the RAS and Q.931 tables' accounting.
func (g *Gateway) TxnStats(report func(plane string, s txn.Stats)) { g.txns.TxnStats(report) }

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
		g.refuseTrunk(env, call)
	}
}

// refuseTrunk is Fig 8's miss arm: "the GK will instruct y to connect to
// the international telephone network as a normal PSTN call."
func (g *Gateway) refuseTrunk(env *sim.Env, call *gwCall) {
	g.voipRefused++
	g.drop(call)
	env.Send(g.cfg.ID, call.exchange, isup.REL{
		CIC: call.cic, CallRef: call.ref, Cause: isup.CauseUnallocatedNumber,
	})
}

// placeVoIPCall is Fig 8 step (3): admission plus Q.931 setup toward the
// registered endpoint (the VMSC hosting the roamer).
func (g *Gateway) placeVoIPCall(env *sim.Env, call *gwCall, lcf LCF) {
	g.nextRef++
	call.leg = Leg{Ref: g.nextRef, Peer: lcf.SignalAddr}
	g.byQ931[call.leg.key()] = call

	g.nextSeq++
	g.txns.SendRAS(env, 0, call, ARQ{
		Seq: g.nextSeq, CallerAlias: call.pstn, CalledAlias: call.remote, CallRef: call.leg.Ref,
	}, gwAdmitDone)
}

// gwAdmitDone completes the inbound call's admission: setup toward the
// registered endpoint, or release back to the exchange.
func gwAdmitDone(env *sim.Env, r gwRAS, msg sim.Message) {
	g, call := (*Gateway)(r.Host), r.Call
	switch msg.(type) {
	case ACF:
		g.txns.Setup(env, call, q931.Setup{
			CallRef: call.leg.Ref, Called: call.remote, Calling: call.pstn,
			Media: q931.MediaAddr{Addr: g.cfg.Addr, Port: ipnet.PortRTP},
		})
	case ARJ:
		g.refuseTrunk(env, call)
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

// handleQ931 runs a call's leg on an arriving message and carries what it
// reports onto the trunk; a Setup for no call opens one.
func (g *Gateway) handleQ931(env *sim.Env, pkt ipnet.Packet, msg sim.Message) {
	ref, _ := q931.CallRefOf(msg)
	call, found := g.byQ931[legKey{pkt.Src, ref}]
	if !found {
		if setup, isSetup := msg.(q931.Setup); isSetup {
			g.handleOutboundSetup(env, pkt, setup)
		}
		return
	}
	switch g.txns.Receive(env, call, msg) {
	case LegAlerted:
		env.Send(g.cfg.ID, call.exchange, isup.ACM{CIC: call.cic, CallRef: call.ref})
	case LegAnswered:
		g.voipCompleted++
		env.Send(g.cfg.ID, call.exchange, isup.ANM{CIC: call.cic, CallRef: call.ref})
	}
}

func (g *Gateway) handleTrunkREL(env *sim.Env, from sim.NodeID, m isup.REL) {
	env.Send(g.cfg.ID, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
	call, ok := g.byISUP[m.CallRef]
	if !ok {
		return
	}
	g.txns.Release(env, call, q931.CauseNormal)
	g.disengage(env, call)
	g.drop(call)
}

// handleOutboundSetup runs the paper §4 PSTN-termination direction: a
// Q.931 Setup admitted toward the gateway becomes an IAM on the trunk to
// the local exchange.
func (g *Gateway) handleOutboundSetup(env *sim.Env, pkt ipnet.Packet, m q931.Setup) {
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
		ref:      0x80000000 | uint32(g.nextRef),
		leg:      Leg{Ref: m.CallRef, Peer: pkt.Src, Media: m.Media, Incoming: true},
		cic:      cic,
		exchange: g.cfg.Exchange,
		pstn:     m.Called,
		remote:   m.Calling,
		trunks:   g.cfg.Trunks,
	}
	g.byISUP[call.ref] = call
	g.byQ931[call.leg.key()] = call
	g.txns.Proceed(env, call)
	env.Send(g.cfg.ID, g.cfg.Exchange, isup.IAM{
		CIC: cic, CallRef: call.ref, Called: call.pstn, Calling: call.remote,
	})
}

// disengage names the call as an endpoint does, with the gateway in the
// PSTN party's place.
func (g *Gateway) disengage(env *sim.Env, call *gwCall) {
	g.nextSeq++
	g.ep.SendRAS(env, g.cfg.Gatekeeper, DRQ{Seq: g.nextSeq, Alias: call.pstn, CallRef: call.leg.Ref, Peer: call.remote})
}

func (g *Gateway) drop(call *gwCall) {
	if call.trunks != nil {
		call.trunks.Release(call.cic)
	}
	g.txns.Reset(call)
	delete(g.byISUP, call.ref)
	delete(g.byQ931, call.leg.key())
}

// trunkVoice transcodes PSTN-side speech into RTP toward the H.323 leg.
func (g *Gateway) trunkVoice(env *sim.Env, m isup.TrunkFrame) {
	call, ok := g.byISUP[m.CallRef]
	if !ok || call.leg.State != LegConnected || !call.leg.Media.Valid() {
		return
	}
	payload := codec.Transcode(m.Payload)
	env.After(codec.TranscodeCost, func() {
		call.rtpSeq++
		p := rtp.Packet{
			PayloadType: rtp.PayloadTypeGSM,
			Seq:         call.rtpSeq,
			Timestamp:   rtp.TimestampAt(env.Now()),
			SSRC:        uint32(call.leg.Ref),
			Payload:     payload,
		}
		g.ep.SendRTP(env, call.leg.Media, p.Marshal())
	})
}

// downlinkVoice transcodes RTP into PSTN-side trunk frames. The gateway has
// one RTP sink; a stream's SSRC is its sender's wire reference and its
// source the leg's peer, so it is one keyed lookup.
func (g *Gateway) downlinkVoice(env *sim.Env, src netip.Addr, payload []byte) {
	p, err := rtp.Unmarshal(payload)
	if err != nil {
		return
	}
	call, ok := g.byQ931[legKey{src, uint16(p.SSRC)}]
	if !ok {
		return
	}
	frame := codec.Transcode(p.Payload)
	env.After(codec.TranscodeCost, func() {
		call.seqDown++
		env.Send(g.cfg.ID, call.exchange, isup.TrunkFrame{
			CIC: call.cic, CallRef: call.ref, Seq: call.seqDown, Payload: frame,
		})
	})
}
