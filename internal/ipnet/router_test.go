package ipnet

import (
	"net/netip"
	"testing"
	"time"

	"vgprs/internal/sim"
)

type host struct {
	id  sim.NodeID
	got []Packet
}

func (h *host) ID() sim.NodeID { return h.id }

func (h *host) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	if pkt, ok := msg.(Packet); ok {
		h.got = append(h.got, pkt)
	}
}

func buildLAN(t *testing.T) (*sim.Env, *Router, *host, *host) {
	t.Helper()
	env := sim.NewEnv(1)
	r := NewRouter("R")
	a := &host{id: "A"}
	b := &host{id: "B"}
	env.AddNode(r)
	env.AddNode(a)
	env.AddNode(b)
	env.Connect("R", "A", "IP", time.Millisecond)
	env.Connect("R", "B", "IP", time.Millisecond)
	r.AddHost(MustAddr("10.0.0.1"), "A")
	r.AddHost(MustAddr("10.0.0.2"), "B")
	return env, r, a, b
}

func TestRouterForwardsByHostEntry(t *testing.T) {
	env, _, _, b := buildLAN(t)
	env.Send("A", "R", Packet{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"),
		Proto: ProtoUDP, Payload: []byte("hi"),
	})
	env.Run()
	if len(b.got) != 1 || string(b.got[0].Payload) != "hi" {
		t.Fatalf("b.got = %v", b.got)
	}
}

func TestRouterPrefixRoute(t *testing.T) {
	env, r, _, b := buildLAN(t)
	r.AddPrefix(netip.MustParsePrefix("192.168.0.0/16"), "B")
	env.Send("A", "R", Packet{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("192.168.55.9"), Proto: ProtoUDP,
	})
	env.Run()
	if len(b.got) != 1 {
		t.Fatalf("prefix route delivered %d packets", len(b.got))
	}
}

func TestRouterHostEntryBeatsPrefix(t *testing.T) {
	env, r, a, b := buildLAN(t)
	r.AddPrefix(netip.MustParsePrefix("10.0.0.0/8"), "B")
	// 10.0.0.1 is a host entry for A; the /8 must not shadow it.
	env.Send("B", "R", Packet{
		Src: MustAddr("10.0.0.2"), Dst: MustAddr("10.0.0.1"), Proto: ProtoUDP,
	})
	env.Run()
	if len(a.got) != 1 || len(b.got) != 0 {
		t.Fatalf("a=%d b=%d", len(a.got), len(b.got))
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	env, _, a, b := buildLAN(t)
	env.Send("A", "R", Packet{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("203.0.113.9"), Proto: ProtoUDP,
	})
	env.Run()
	// One delivery, to the router, and nothing forwarded.
	if len(a.got)+len(b.got) != 0 || env.Delivered() != 1 {
		t.Fatalf("a=%d b=%d delivered=%d", len(a.got), len(b.got), env.Delivered())
	}
}

func TestRouterDropsHairpin(t *testing.T) {
	env, _, a, _ := buildLAN(t)
	// A sends a packet whose next hop is A itself: dropped, not looped.
	env.Send("A", "R", Packet{
		Src: MustAddr("10.0.0.2"), Dst: MustAddr("10.0.0.1"), Proto: ProtoUDP,
	})
	env.Run()
	if len(a.got) != 0 || env.Delivered() != 1 {
		t.Fatalf("a=%d delivered=%d", len(a.got), env.Delivered())
	}
}

func TestRouterLookup(t *testing.T) {
	_, r, _, _ := buildLAN(t)
	if next, ok := r.Lookup(MustAddr("10.0.0.1")); !ok || next != "A" {
		t.Fatalf("Lookup = %v/%v", next, ok)
	}
	if _, ok := r.Lookup(MustAddr("1.1.1.1")); ok {
		t.Fatal("Lookup of unroutable address succeeded")
	}
}

func TestRouterIgnoresForeignMessages(t *testing.T) {
	env, _, a, b := buildLAN(t)
	env.Send("A", "R", foreignMsg{})
	env.Run()
	if len(a.got)+len(b.got) != 0 || env.Delivered() != 1 {
		t.Fatalf("foreign message forwarded: a=%d b=%d delivered=%d", len(a.got), len(b.got), env.Delivered())
	}
}

type foreignMsg struct{}

func (foreignMsg) Name() string { return "X" }
