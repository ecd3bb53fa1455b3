package ipnet

import (
	"net/netip"

	"vgprs/internal/sim"
)

// Router is a simple IP forwarding node for the external packet network (the
// PSDN / H.323 LAN of Figs 1-2): hosts register their addresses and the
// router delivers Packets by destination address. A default route catches
// addresses with no host entry (the GGSN registers the PDP address ranges it
// serves this way).
type Router struct {
	id sim.NodeID

	hosts    map[netip.Addr]sim.NodeID
	prefixes []prefixRoute
}

type prefixRoute struct {
	prefix netip.Prefix
	next   sim.NodeID
}

var _ sim.Node = (*Router)(nil)

// NewRouter returns an empty router.
func NewRouter(id sim.NodeID) *Router {
	return &Router{id: id, hosts: make(map[netip.Addr]sim.NodeID)}
}

// ID implements sim.Node.
func (r *Router) ID() sim.NodeID { return r.id }

// AddHost binds an address to a directly attached node.
func (r *Router) AddHost(addr netip.Addr, node sim.NodeID) {
	r.hosts[addr] = node
}

// AddPrefix routes a whole prefix (e.g. the GGSN's dynamic PDP range) to a
// next-hop node. Longest-registered wins is not implemented; first match in
// insertion order applies, which suffices for the disjoint ranges used here.
func (r *Router) AddPrefix(prefix netip.Prefix, node sim.NodeID) {
	r.prefixes = append(r.prefixes, prefixRoute{prefix: prefix, next: node})
}

// Lookup resolves the next hop for an address.
func (r *Router) Lookup(addr netip.Addr) (sim.NodeID, bool) {
	if node, ok := r.hosts[addr]; ok {
		return node, true
	}
	for _, pr := range r.prefixes {
		if pr.prefix.Contains(addr) {
			return pr.next, true
		}
	}
	return "", false
}

// Receive implements sim.Node: forward by destination address.
func (r *Router) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	pkt, ok := msg.(Packet)
	if !ok {
		return
	}
	next, found := r.Lookup(pkt.Dst)
	if !found || next == from {
		return // no route: dropped
	}
	// Forward the original interface value: the packet is relayed
	// unchanged, so re-boxing the Packet struct would be a pure allocation.
	env.Send(r.id, next, msg)
}
