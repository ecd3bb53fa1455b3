package h323

import (
	"net/netip"
	"testing"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/rtp"
	"vgprs/internal/sim"
)

// exchangeStub plays the PSTN exchange on the gateway's trunk side.
type exchangeStub struct {
	id       sim.NodeID
	acm, anm int
	rel      []isup.REL
	frames   int
}

func (e *exchangeStub) ID() sim.NodeID { return e.id }

func (e *exchangeStub) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.ACM:
		e.acm++
	case isup.ANM:
		e.anm++
	case isup.REL:
		e.rel = append(e.rel, m)
		env.Send(e.id, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
	case isup.TrunkFrame:
		e.frames++
	}
}

// gwFixture: exchange - gateway - LAN(router) - GK + terminal.
type gwFixture struct {
	env      *sim.Env
	gw       *Gateway
	gk       *Gatekeeper
	term     *Terminal
	exchange *exchangeStub
	router   *ipnet.Router
}

// routerAdd attaches another host to the fixture LAN.
func (f *gwFixture) routerAdd(addr netip.Addr, node sim.NodeID) {
	f.router.AddHost(addr, node)
}

func newGWFixture(t *testing.T) *gwFixture {
	t.Helper()
	env := sim.NewEnv(1)
	dir := NewDirectory()
	gkAddr := ipnet.MustAddr("192.168.9.1")
	gwAddr := ipnet.MustAddr("192.168.9.2")
	termAddr := ipnet.MustAddr("192.168.9.10")

	router := ipnet.NewRouter("LAN")
	gk := NewGatekeeper(GatekeeperConfig{ID: "GK", Addr: gkAddr, Router: "LAN", Dir: dir})
	gw := NewGateway(GatewayConfig{ID: "GW", Addr: gwAddr, Router: "LAN", Gatekeeper: gkAddr, Dir: dir})
	term := NewTerminal(TerminalConfig{
		ID: "TERM", Alias: "044781234567", Addr: termAddr,
		Router: "LAN", Gatekeeper: gkAddr, Dir: dir,
		AutoAnswer: true, AnswerDelay: 50 * time.Millisecond, Talk: true,
	})
	exchange := &exchangeStub{id: "LE"}

	router.AddHost(gkAddr, "GK")
	router.AddHost(gwAddr, "GW")
	router.AddHost(termAddr, "TERM")

	for _, n := range []sim.Node{router, gk, gw, term, exchange} {
		env.AddNode(n)
	}
	env.Connect("LAN", "GK", "IP", time.Millisecond)
	env.Connect("LAN", "GW", "IP", time.Millisecond)
	env.Connect("LAN", "TERM", "IP", time.Millisecond)
	env.Connect("LE", "GW", "ISUP", time.Millisecond)

	term.Register(env)
	env.Run()
	if !term.Registered() {
		t.Fatal("terminal registration failed")
	}
	return &gwFixture{env: env, gw: gw, gk: gk, term: term, exchange: exchange, router: router}
}

func TestGatewayCompletesCallToRegisteredAlias(t *testing.T) {
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 500, Called: "044781234567", Calling: "85221110001"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)

	if f.exchange.acm != 1 || f.exchange.anm != 1 {
		t.Fatalf("acm=%d anm=%d", f.exchange.acm, f.exchange.anm)
	}
	completed, refused := f.gw.Stats()
	if completed != 1 || refused != 0 {
		t.Fatalf("stats = %d/%d", completed, refused)
	}
	// Voice bridges: terminal RTP -> trunk frames, and trunk frames -> RTP.
	f.env.Send("LE", "GW", isup.TrunkFrame{CIC: 3, CallRef: 500, Seq: 1,
		Payload: codec.NewFrame(f.env.Now(), 1)})
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.exchange.frames == 0 {
		t.Fatal("no downlink trunk frames from terminal RTP")
	}
	if f.term.Media.Received() == 0 {
		t.Fatal("terminal received no RTP from the trunk side")
	}
}

func TestGatewayRefusesUnknownAlias(t *testing.T) {
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 501, Called: "044799999999"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if len(f.exchange.rel) != 1 || f.exchange.rel[0].Cause != isup.CauseUnallocatedNumber {
		t.Fatalf("rel = %+v", f.exchange.rel)
	}
	if _, refused := f.gw.Stats(); refused != 1 {
		t.Fatalf("refused = %d", refused)
	}
}

func TestGatewayTrunkRELClearsH323Leg(t *testing.T) {
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 502, Called: "044781234567"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if f.term.ActiveCalls() != 1 {
		t.Fatalf("terminal calls = %d", f.term.ActiveCalls())
	}
	// The PSTN caller hangs up.
	f.env.Send("LE", "GW", isup.REL{CIC: 3, CallRef: 502, Cause: isup.CauseNormalClearing})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if f.term.ActiveCalls() != 0 {
		t.Fatal("terminal call not cleared")
	}
}

func TestGatewayTerminalHangupReleasesTrunk(t *testing.T) {
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 503, Called: "044781234567"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	refs := f.term.CallRefs()
	if len(refs) != 1 {
		t.Fatalf("refs = %v", refs)
	}
	if err := f.term.Hangup(f.env, refs[0]); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if len(f.exchange.rel) != 1 {
		t.Fatalf("exchange rel = %+v", f.exchange.rel)
	}
}

func TestGatewayStrayRTPIgnored(t *testing.T) {
	f := newGWFixture(t)
	// RTP with no call must not crash or emit trunk frames.
	p := rtp.Packet{SSRC: 9999, Payload: codec.NewFrame(0, 1)}
	f.env.Send("LAN", "GW", ipnet.Packet{
		Src: ipnet.MustAddr("192.168.9.10"), Dst: ipnet.MustAddr("192.168.9.2"),
		Proto: ipnet.ProtoUDP, SrcPort: ipnet.PortRTP, DstPort: ipnet.PortRTP,
		Payload: p.Marshal(),
	})
	f.env.Run()
	if f.exchange.frames != 0 {
		t.Fatal("stray RTP produced trunk frames")
	}
}

func TestGatewayCallerAliasNotRequired(t *testing.T) {
	// The PSTN caller has no H.323 registration; admission must still
	// work (the gatekeeper translates the CALLED alias).
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 1, CallRef: 504, Called: "044781234567", Calling: "0000000000"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if completed, _ := f.gw.Stats(); completed != 1 {
		t.Fatalf("completed = %d", completed)
	}
}

// answeringExchange answers every IAM with ACM+ANM — a PSTN that always
// picks up, for driving the gateway's outbound direction.
type answeringExchange struct {
	id     sim.NodeID
	iam    int
	frames int
}

func (e *answeringExchange) ID() sim.NodeID { return e.id }

func (e *answeringExchange) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.IAM:
		e.iam++
		env.Send(e.id, from, isup.ACM{CIC: m.CIC, CallRef: m.CallRef})
		env.Send(e.id, from, isup.ANM{CIC: m.CIC, CallRef: m.CallRef})
	case isup.REL:
		env.Send(e.id, from, isup.RLC{CIC: m.CIC, CallRef: m.CallRef})
	case isup.TrunkFrame:
		e.frames++
	}
}

// pstnLAN: two terminals on a LAN whose gatekeeper routes 8522... to a
// gateway with four trunks toward an always-answering exchange.
type pstnLAN struct {
	env    *sim.Env
	gk     *Gatekeeper
	a, b   *Terminal
	le     *answeringExchange
	trunks *isup.TrunkGroup
}

func newPSTNLAN(t *testing.T) *pstnLAN {
	t.Helper()
	env := sim.NewEnv(1)
	dir := NewDirectory()
	gkAddr := ipnet.MustAddr("192.168.9.1")
	gwAddr := ipnet.MustAddr("192.168.9.2")
	aAddr := ipnet.MustAddr("192.168.9.10")
	bAddr := ipnet.MustAddr("192.168.9.11")

	router := ipnet.NewRouter("LAN")
	gk := NewGatekeeper(GatekeeperConfig{
		ID: "GK", Addr: gkAddr, Router: "LAN", Dir: dir,
		PSTNGateway: gwAddr, PSTNPrefixes: []string{"8522"},
	})
	trunks := isup.NewTrunkGroup("GW<->LE", isup.TrunkLocal, 4)
	gw := NewGateway(GatewayConfig{
		ID: "GW", Addr: gwAddr, Router: "LAN", Gatekeeper: gkAddr, Dir: dir,
		Exchange: "LE", Trunks: trunks,
	})
	a := NewTerminal(TerminalConfig{ID: "TERM-A", Alias: "044781110001", Addr: aAddr,
		Router: "LAN", Gatekeeper: gkAddr, Dir: dir})
	b := NewTerminal(TerminalConfig{ID: "TERM-B", Alias: "044781110002", Addr: bAddr,
		Router: "LAN", Gatekeeper: gkAddr, Dir: dir})
	le := &answeringExchange{id: "LE"}

	router.AddHost(gkAddr, "GK")
	router.AddHost(gwAddr, "GW")
	router.AddHost(aAddr, "TERM-A")
	router.AddHost(bAddr, "TERM-B")
	for _, n := range []sim.Node{router, gk, gw, a, b, le} {
		env.AddNode(n)
	}
	env.Connect("LAN", "GK", "IP", time.Millisecond)
	env.Connect("LAN", "GW", "IP", time.Millisecond)
	env.Connect("LAN", "TERM-A", "IP", time.Millisecond)
	env.Connect("LAN", "TERM-B", "IP", time.Millisecond)
	env.Connect("LE", "GW", "ISUP", time.Millisecond)

	a.Register(env)
	b.Register(env)
	env.Run()
	if !a.Registered() || !b.Registered() {
		t.Fatal("registration failed")
	}
	return &pstnLAN{env: env, gk: gk, a: a, b: b, le: le, trunks: trunks}
}

// TestGatewayScopesCallRefsPerPeer is the gateway-side regression for the
// Q.931 call-reference collision: two endpoints place their *first* call
// (both use reference 1) toward PSTN numbers through the same gateway. The
// gateway must treat them as distinct calls — references are scoped per
// signalling connection — and connect both.
func TestGatewayScopesCallRefsPerPeer(t *testing.T) {
	p := newPSTNLAN(t)
	env, a, b, le, trunks := p.env, p.a, p.b, p.le, p.trunks

	refA, err := a.Call(env, "85221110001")
	if err != nil {
		t.Fatal(err)
	}
	refB, err := b.Call(env, "85221110002")
	if err != nil {
		t.Fatal(err)
	}
	if refA != refB {
		t.Fatalf("test premise broken: refs %d vs %d should collide", refA, refB)
	}
	env.Run()

	if le.iam != 2 {
		t.Fatalf("exchange saw %d IAMs, want 2", le.iam)
	}
	stA, _ := a.CallState(refA)
	stB, _ := b.CallState(refB)
	if stA != CallConnected || stB != CallConnected {
		t.Fatalf("states A=%v B=%v, want both connected", stA, stB)
	}
	if trunks.InUse() != 2 {
		t.Fatalf("trunks in use = %d, want 2", trunks.InUse())
	}

	// Both calls clear independently.
	if err := a.Hangup(env, refA); err != nil {
		t.Fatal(err)
	}
	env.Run()
	stB, _ = b.CallState(refB)
	if stB != CallConnected {
		t.Fatal("clearing A's call disturbed B's")
	}
	if trunks.InUse() != 1 {
		t.Fatalf("trunks in use = %d after one hangup", trunks.InUse())
	}
	if err := b.Hangup(env, refB); err != nil {
		t.Fatal(err)
	}
	env.Run()
	if trunks.InUse() != 0 {
		t.Fatal("trunk leaked")
	}
}

// TestGatewayTwoConcurrentInboundCalls runs two PSTN calls through the
// gateway to two different terminals at once and checks the media plane
// demuxes per call: each terminal's RTP reaches only its own trunk, and
// each trunk's frames reach only its own terminal.
func TestGatewayTwoConcurrentInboundCalls(t *testing.T) {
	f := newGWFixture(t)
	// Second terminal.
	bAddr := ipnet.MustAddr("192.168.9.11")
	b := NewTerminal(TerminalConfig{
		ID: "TERM-B", Alias: "044781234568", Addr: bAddr,
		Router: "LAN", Gatekeeper: ipnet.MustAddr("192.168.9.1"), Dir: nil,
		AutoAnswer: true, AnswerDelay: 50 * time.Millisecond,
	})
	f.env.AddNode(b)
	f.env.Connect("LAN", "TERM-B", "IP", time.Millisecond)
	// Router host registration for the new terminal.
	f.routerAdd(bAddr, "TERM-B")
	b.Register(f.env)
	f.env.Run()
	if !b.Registered() {
		t.Fatal("TERM-B registration failed")
	}

	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 500, Called: "044781234567", Calling: "85221110001"})
	f.env.Send("LE", "GW", isup.IAM{CIC: 4, CallRef: 501, Called: "044781234568", Calling: "85221110002"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)

	completed, refused := f.gw.Stats()
	if completed != 2 || refused != 0 {
		t.Fatalf("stats = %d/%d, want 2/0", completed, refused)
	}

	// Trunk frames on CIC 4 must reach only TERM-B.
	aBefore, bBefore := f.term.Media.Received(), b.Media.Received()
	f.env.Send("LE", "GW", isup.TrunkFrame{CIC: 4, CallRef: 501, Seq: 1,
		Payload: codec.NewFrame(f.env.Now(), 1)})
	f.env.RunUntil(f.env.Now() + 500*time.Millisecond)
	if got := b.Media.Received() - bBefore; got != 1 {
		t.Fatalf("TERM-B received %d frames, want 1", got)
	}
	if got := f.term.Media.Received() - aBefore; got != 0 {
		t.Fatalf("TERM-A received %d frames for TERM-B's call", got)
	}
	// And TERM-A's RTP (Talk is on for TERM-A) keeps flowing to CIC 3
	// only: the exchange counts frames from both calls, so just require
	// growth without misrouting errors.
	if f.exchange.frames == 0 {
		t.Fatal("no trunk frames from terminal RTP")
	}
}

// TestGatewayDRQClosesOnlyItsCall: the gateway's DRQ names its call, so it
// closes that call and no other. A second call from another caller is held
// open under the same wire reference, in a row that comes first in the
// gatekeeper's table (it was opened first, so it holds the earlier slot);
// releasing A's call through the gateway (A's DRQ, then the gateway's) must
// leave it open.
func TestGatewayDRQClosesOnlyItsCall(t *testing.T) {
	p := newPSTNLAN(t)
	const ref, other, caller = 1, gsmid.MSISDN("044780000000"), gsmid.MSISDN("044781110001")
	p.gk.openCall(ARQ{CallerAlias: other, CalledAlias: "85221119999", CallRef: ref}, 0)

	refA, err := p.a.Call(p.env, "85221110001")
	if err != nil {
		t.Fatal(err)
	}
	if refA != ref {
		t.Fatalf("test premise broken: A's reference is %d, want %d", refA, ref)
	}
	p.env.Run()
	if st, _ := p.a.CallState(refA); st != CallConnected {
		t.Fatalf("A's call is %v, want connected", st)
	}
	if active, _, _ := p.gk.Calls(); active != 2 {
		t.Fatalf("gatekeeper holds %d active calls, want A's and the other caller's", active)
	}
	hOther, _ := p.gk.byCall.Get(gkCallKey{other.Pack(), ref})
	if hA, _ := p.gk.byCall.Get(gkCallKey{caller.Pack(), ref}); hA.IsZero() || uint32(hOther) >= uint32(hA) {
		t.Fatalf("test premise broken: the other caller's row %x does not precede A's %x", hOther, hA)
	}
	if err := p.a.Hangup(p.env, refA); err != nil {
		t.Fatal(err)
	}
	p.env.Run()
	if p.trunks.InUse() != 0 {
		t.Fatal("trunk leaked")
	}
	_, held := p.gk.byCall.Get(gkCallKey{other.Pack(), ref})
	if active, _, _ := p.gk.Calls(); held == nil || active != 1 {
		t.Fatalf("the other caller's call was closed (%d active calls)", active)
	}
}
