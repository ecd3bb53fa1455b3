package h323

import (
	"net/netip"
	"sync"

	"vgprs/internal/ipnet"
	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
)

// Directory maps IP addresses to node IDs for trace annotation: when an
// endpoint notes a logical arrow ("RAS RRQ", "Q.931 Setup") it resolves the
// peer's node name so recorded traces read like the paper's figures. It has
// no protocol role.
//
// With one bound address per attached subscriber, the directory is itself a
// per-subscriber surface, so it uses the same open-addressing index as the
// subscriber stores: node names are interned once (the set of distinct
// names is bounded by topology size) and each binding costs one 12-byte
// index cell — the address in its 4-byte IPv4 form and the interned symbol
// — not a map entry with a string header.
type Directory struct {
	mu    sync.Mutex
	idx   *slab.Index[uint32]
	nodes slab.Syms[sim.NodeID]
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{idx: slab.NewIndex[uint32](slab.HashUint32)}
}

// Bind associates an address with a node for tracing. Only IPv4 addresses
// exist on the simulated networks; anything else is ignored.
func (d *Directory) Bind(addr netip.Addr, node sim.NodeID) {
	key, v4 := ipnet.V4Key(addr)
	if d == nil || node == "" || !v4 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The 1-based symbol doubles as the stored handle; it is never zero
	// for a non-empty name, which is all Index.Put requires.
	d.idx.Put(key, slab.Handle(d.nodes.ID(node)))
}

// Unbind drops an address binding (subscriber purge).
func (d *Directory) Unbind(addr netip.Addr) {
	key, v4 := ipnet.V4Key(addr)
	if d == nil || !v4 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.idx.Delete(key)
}

// Bound returns the number of live address bindings.
func (d *Directory) Bound() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Len()
}

// Footprint is the memory the bindings hold, in bytes.
func (d *Directory) Footprint() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.Bytes()
}

// Resolve returns the node for an address, or a synthetic name.
func (d *Directory) Resolve(addr netip.Addr) sim.NodeID {
	key, v4 := ipnet.V4Key(addr)
	if d == nil || !v4 {
		return sim.NodeID(addr.String())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.idx.Get(key); !h.IsZero() {
		return d.nodes.Val(uint32(h))
	}
	return sim.NodeID(addr.String())
}

// Endpoint is the shared IP plumbing of every H.323 protocol element
// (terminal, gatekeeper, gateway, and the VMSC's H.323 side): it frames RAS
// and Q.931 messages into ipnet packets, demultiplexes arrivals by port,
// and records the logical signalling arrows in the trace.
type Endpoint struct {
	// Node is the owning node's ID (for trace arrows).
	Node sim.NodeID
	// Addr is this endpoint's IP address.
	Addr netip.Addr
	// Send transmits an IP packet toward the network: a LAN-attached
	// element sends to its router link.
	Send func(env *sim.Env, pkt ipnet.Packet)
	// Via, when set, takes precedence over Send. An owner that speaks for
	// many endpoints (the VMSC, one per registered MS, sending into the
	// MS's GPRS tunnel) implements Sender once, builds an endpoint on its
	// stack when it has something to send — the methods take the endpoint
	// by value for that — and is told through Owner whose packet it is.
	Via   Sender
	Owner slab.Handle
	// Dir resolves peer addresses for tracing (nil tolerated).
	Dir *Directory
}

// Sender is the closure-free alternative to Endpoint.Send.
type Sender interface {
	SendIPPacket(env *sim.Env, owner slab.Handle, pkt ipnet.Packet)
}

// transmit routes an outgoing packet through Via or Send.
func (e Endpoint) transmit(env *sim.Env, pkt ipnet.Packet) {
	if e.Via != nil {
		e.Via.SendIPPacket(env, e.Owner, pkt)
		return
	}
	e.Send(env, pkt)
}

// note records the logical arrow of an outgoing message. The peer's name is
// resolved only when somebody is listening.
func (e Endpoint) note(env *sim.Env, to netip.Addr, iface string, msg sim.Message) {
	if env.Tracer() != nil {
		env.Note(e.Node, e.Dir.Resolve(to), iface, msg)
	}
}

// SendRAS transmits a RAS message to a peer over UDP 1719 and notes the
// logical arrow.
func (e Endpoint) SendRAS(env *sim.Env, to netip.Addr, msg sim.Message) {
	body, err := MarshalRAS(msg)
	if err != nil {
		return
	}
	e.note(env, to, "RAS", msg)
	e.transmit(env, ipnet.Packet{
		Src: e.Addr, Dst: to,
		Proto:   ipnet.ProtoUDP,
		SrcPort: ipnet.PortRAS, DstPort: ipnet.PortRAS,
		Payload: body,
	})
}

// SendQ931 transmits a call-signalling message to a peer over TCP 1720 and
// notes the logical arrow.
func (e Endpoint) SendQ931(env *sim.Env, to netip.Addr, msg sim.Message) {
	body, err := q931.Marshal(msg)
	if err != nil {
		return
	}
	e.note(env, to, "H.225", msg)
	e.transmit(env, ipnet.Packet{
		Src: e.Addr, Dst: to,
		Proto:   ipnet.ProtoTCP,
		SrcPort: ipnet.PortQ931, DstPort: ipnet.PortQ931,
		Payload: body,
	})
}

// SendRTP transmits a media packet to a peer media address.
func (e Endpoint) SendRTP(env *sim.Env, to q931.MediaAddr, body []byte) {
	e.transmit(env, ipnet.Packet{
		Src: e.Addr, Dst: to.Addr,
		Proto:   ipnet.ProtoUDP,
		SrcPort: ipnet.PortRTP, DstPort: to.Port,
		Payload: body,
	})
}

// Inbound classifies a received IP packet for the owning element.
type Inbound struct {
	// Packet is the raw datagram.
	Packet ipnet.Packet
	// RAS holds the decoded RAS message when DstPort is 1719.
	RAS sim.Message
	// Q931 holds the decoded call-signalling message when DstPort is 1720.
	Q931 sim.Message
	// RTPPayload holds media bytes when the packet targets the RTP port.
	RTPPayload []byte
}

// Classify decodes an arriving packet by destination port. It returns
// (zero, false) for packets an H.323 element should ignore.
func Classify(pkt ipnet.Packet) (Inbound, bool) {
	switch pkt.DstPort {
	case ipnet.PortRAS:
		msg, err := UnmarshalRAS(pkt.Payload)
		if err != nil {
			return Inbound{}, false
		}
		return Inbound{Packet: pkt, RAS: msg}, true
	case ipnet.PortQ931:
		msg, err := q931.Unmarshal(pkt.Payload)
		if err != nil {
			return Inbound{}, false
		}
		return Inbound{Packet: pkt, Q931: msg}, true
	case ipnet.PortRTP:
		return Inbound{Packet: pkt, RTPPayload: pkt.Payload}, true
	default:
		return Inbound{}, false
	}
}
