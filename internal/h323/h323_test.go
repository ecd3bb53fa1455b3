package h323

import (
	"errors"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

func TestRASCodecRoundTrip(t *testing.T) {
	addr := ipnet.MustAddr("192.168.1.5")
	msgs := []sim.Message{
		RRQ{Seq: 1, Alias: "886912345678", SignalAddr: addr, SignalPort: 1720},
		RRQ{Seq: 2, Alias: "886912345678", SignalAddr: addr, SignalPort: 1720,
			KeepAlive: true, TTLSeconds: 120},
		RCF{Seq: 1, EndpointID: "ep-1"},
		RCF{Seq: 2, EndpointID: "ep-1", TTLSeconds: 60},
		RRJ{Seq: 1, Reason: RejectDuplicateAlias},
		URQ{Seq: 2, Alias: "886912345678"},
		UCF{Seq: 2},
		ARQ{Seq: 3, CallerAlias: "886912345678", CalledAlias: "85291234567", CallRef: 7, Answer: false},
		ARQ{Seq: 4, CallerAlias: "85291234567", CalledAlias: "886912345678", CallRef: 7, Answer: true},
		ACF{Seq: 3, SignalAddr: addr, SignalPort: 1720},
		ACF{Seq: 4},
		ARJ{Seq: 3, Reason: RejectCalledPartyNotRegistered},
		DRQ{Seq: 5, Alias: "886912345678", CallRef: 7},
		DRQ{Seq: 6, Alias: "886912345678", CallRef: 7, Peer: "85291110001"},
		DCF{Seq: 5},
		LRQ{Seq: 6, Alias: "886912345678"},
		LCF{Seq: 6, SignalAddr: addr, SignalPort: 1720},
		LRJ{Seq: 6, Reason: RejectCalledPartyNotRegistered},
	}
	for _, m := range msgs {
		b, err := MarshalRAS(m)
		if err != nil {
			t.Fatalf("MarshalRAS(%T): %v", m, err)
		}
		got, err := UnmarshalRAS(b)
		if err != nil {
			t.Fatalf("UnmarshalRAS(%T): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %#v -> %#v", m, got)
		}
	}
}

func TestRASCodecErrors(t *testing.T) {
	if _, err := UnmarshalRAS([]byte{0xEE, 0, 0, 0, 0}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unknown opcode err = %v", err)
	}
	if _, err := UnmarshalRAS([]byte{opRRQ}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short err = %v", err)
	}
	b, err := MarshalRAS(DCF{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRAS(append(b, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing err = %v", err)
	}
	if _, err := MarshalRAS(foreign{}); err == nil {
		t.Error("foreign type accepted")
	}
}

func TestRejectReasonStrings(t *testing.T) {
	if RejectDuplicateAlias.String() != "duplicate-alias" || RejectReason(99).String() != "RejectReason(99)" {
		t.Fatal("reason strings wrong")
	}
}

func TestRASRoundTripProperty(t *testing.T) {
	prop := func(seq uint32, ref uint16, answer bool) bool {
		m := ARQ{Seq: seq, CallerAlias: "886912345678", CalledAlias: "85291234567",
			CallRef: ref, Answer: answer}
		b, err := MarshalRAS(m)
		if err != nil {
			return false
		}
		got, err := UnmarshalRAS(b)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type lanFixture struct {
	env    *sim.Env
	rec    *trace.Recorder
	gk     *Gatekeeper
	a, b   *Terminal
	router *ipnet.Router
	dir    *Directory
}

// newLAN builds an H.323 LAN: gatekeeper + two terminals behind one router.
func newLAN(t *testing.T, aCfg, bCfg TerminalConfig) *lanFixture {
	t.Helper()
	return newLANWithGK(t, nil, aCfg, bCfg)
}

// newLANWithGK is newLAN with a hook to adjust the gatekeeper's
// configuration (e.g. a registration TTL) before construction.
func newLANWithGK(t *testing.T, gkMutate func(*GatekeeperConfig), aCfg, bCfg TerminalConfig) *lanFixture {
	t.Helper()
	env := sim.NewEnv(1)
	rec := trace.NewRecorder()
	env.SetTracer(rec)
	dir := NewDirectory()

	gkAddr := ipnet.MustAddr("192.168.1.1")
	aAddr := ipnet.MustAddr("192.168.1.10")
	bAddr := ipnet.MustAddr("192.168.1.11")

	router := ipnet.NewRouter("LAN")
	gkCfg := GatekeeperConfig{ID: "GK", Addr: gkAddr, Router: "LAN", Dir: dir}
	if gkMutate != nil {
		gkMutate(&gkCfg)
	}
	gk := NewGatekeeper(gkCfg)

	aCfg.ID, aCfg.Alias, aCfg.Addr = "TERM-A", "85291110001", aAddr
	aCfg.Router, aCfg.Gatekeeper, aCfg.Dir = "LAN", gkAddr, dir
	bCfg.ID, bCfg.Alias, bCfg.Addr = "TERM-B", "85291110002", bAddr
	bCfg.Router, bCfg.Gatekeeper, bCfg.Dir = "LAN", gkAddr, dir
	a := NewTerminal(aCfg)
	b := NewTerminal(bCfg)

	dir.Bind(gkAddr, "GK")
	dir.Bind(aAddr, "TERM-A")
	dir.Bind(bAddr, "TERM-B")
	router.AddHost(gkAddr, "GK")
	router.AddHost(aAddr, "TERM-A")
	router.AddHost(bAddr, "TERM-B")

	for _, n := range []sim.Node{router, gk, a, b} {
		env.AddNode(n)
	}
	env.Connect("LAN", "GK", "IP", time.Millisecond)
	env.Connect("LAN", "TERM-A", "IP", time.Millisecond)
	env.Connect("LAN", "TERM-B", "IP", time.Millisecond)

	return &lanFixture{env: env, rec: rec, gk: gk, a: a, b: b, router: router, dir: dir}
}

func (f *lanFixture) registerBoth(t *testing.T) {
	t.Helper()
	f.a.Register(f.env)
	f.b.Register(f.env)
	f.env.Run()
	if !f.a.Registered() || !f.b.Registered() {
		t.Fatal("registration failed")
	}
}

func TestRegistrationCreatesTableEntry(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)
	if f.gk.Registered() != 2 {
		t.Fatalf("table entries = %d", f.gk.Registered())
	}
	reg, ok := f.gk.Lookup("85291110001")
	if !ok || reg.SignalAddr != ipnet.MustAddr("192.168.1.10") {
		t.Fatalf("registration = %+v/%v", reg, ok)
	}
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "RAS RRQ", From: "TERM-A", To: "GK", Iface: "RAS"},
		{Msg: "RAS RCF", From: "GK", To: "TERM-A", Iface: "RAS"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAliasFromOtherAddressRejected(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)
	// An impostor at a new address claims A's alias.
	impostorAddr := ipnet.MustAddr("192.168.1.99")
	var rejected bool
	imp := NewTerminal(TerminalConfig{
		ID: "IMP", Alias: "85291110001", Addr: impostorAddr,
		Router: "LAN", Gatekeeper: ipnet.MustAddr("192.168.1.1"), Dir: f.dir,
		Hooks: TerminalHooks{OnRegisterFailed: func(RejectReason) { rejected = true }},
	})
	f.env.AddNode(imp)
	f.router.AddHost(impostorAddr, "IMP")
	f.env.Connect("LAN", "IMP", "IP", time.Millisecond)
	imp.Register(f.env)
	f.env.Run()
	if imp.Registered() || !rejected {
		t.Fatal("impostor registration accepted")
	}
}

func TestFullCallBetweenTerminals(t *testing.T) {
	var events []string
	f := newLAN(t,
		TerminalConfig{Talk: true,
			Hooks: TerminalHooks{
				OnAlerting:  func(uint16) { events = append(events, "a:alerting") },
				OnConnected: func(uint16) { events = append(events, "a:connected") },
				OnReleased:  func(uint16) { events = append(events, "a:released") },
			}},
		TerminalConfig{Talk: true, AutoAnswer: true, AnswerDelay: 100 * time.Millisecond,
			Hooks: TerminalHooks{
				OnIncoming: func(_ uint16, calling gsmid.MSISDN) {
					events = append(events, "b:incoming:"+string(calling))
				},
			}},
	)
	f.registerBoth(t)

	ref, err := f.a.Call(f.env, "85291110002")
	if err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 2*time.Second)

	if st, _ := f.a.CallState(ref); st != LegConnected {
		t.Fatalf("caller state = %v", st)
	}
	// Media flowed both ways.
	if f.a.Media.Received() == 0 || f.b.Media.Received() == 0 {
		t.Fatalf("media a=%d b=%d", f.a.Media.Received(), f.b.Media.Received())
	}
	// One-way delay is the 2 x 1 ms LAN path (terminal->router->peer).
	if d := f.a.Media.MeanDelay(); d != 2*time.Millisecond {
		t.Fatalf("mean one-way delay = %v, want 2ms", d)
	}

	if err := f.a.Hangup(f.env, ref); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.a.ActiveCalls() != 0 || f.b.ActiveCalls() != 0 {
		t.Fatalf("active calls a=%d b=%d", f.a.ActiveCalls(), f.b.ActiveCalls())
	}

	// The signalling trace follows the paper's H.323 message order.
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "RAS ARQ", From: "TERM-A", To: "GK"},
		{Msg: "RAS ACF", From: "GK", To: "TERM-A"},
		{Msg: "Q.931 Setup", From: "TERM-A", To: "TERM-B"},
		{Msg: "Q.931 Call Proceeding", From: "TERM-B", To: "TERM-A"},
		{Msg: "RAS ARQ", From: "TERM-B", To: "GK"},
		{Msg: "RAS ACF", From: "GK", To: "TERM-B"},
		{Msg: "Q.931 Alerting", From: "TERM-B", To: "TERM-A"},
		{Msg: "Q.931 Connect", From: "TERM-B", To: "TERM-A"},
		{Msg: "Q.931 Release Complete", From: "TERM-A", To: "TERM-B"},
		{Msg: "RAS DRQ"},
		{Msg: "RAS DCF"},
	}); err != nil {
		t.Fatal(err)
	}

	// Charging stopped at the DRQ (paper step 3.3), and the call is gone.
	if active, calls, held := f.gk.Calls(); active != 0 || calls != 1 || held <= 0 {
		t.Fatalf("gatekeeper: %d active, %d disengaged held %v; want 0, 1 held > 0", active, calls, held)
	}
}

func TestCallToUnregisteredAliasRejected(t *testing.T) {
	var rejectedRef uint16
	var reason RejectReason
	f := newLAN(t, TerminalConfig{
		Hooks: TerminalHooks{OnRejected: func(ref uint16, r RejectReason) {
			rejectedRef, reason = ref, r
		}},
	}, TerminalConfig{})
	f.registerBoth(t)
	ref, err := f.a.Call(f.env, "19998887777")
	if err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if rejectedRef != ref || reason != RejectCalledPartyNotRegistered {
		t.Fatalf("rejection = ref %d reason %v", rejectedRef, reason)
	}
	if st, _ := f.a.CallState(ref); st != LegReleasing {
		t.Fatalf("state = %v", st)
	}
	if _, rejects := f.gk.Admissions(); rejects != 1 {
		t.Fatalf("rejects = %d", rejects)
	}
}

func TestCallBeforeRegistrationFails(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	if _, err := f.a.Call(f.env, "85291110002"); err == nil {
		t.Fatal("call before registration accepted")
	}
}

func TestCalleeHangupClearsCaller(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{AutoAnswer: true})
	f.registerBoth(t)
	ref, err := f.a.Call(f.env, "85291110002")
	if err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	// B answers instantly; find B's reference (same CallRef rides the wire).
	if err := f.b.Hangup(f.env, ref); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if st, _ := f.a.CallState(ref); st != LegReleasing {
		t.Fatalf("caller state after callee hangup = %v", st)
	}
}

func TestLocationRequest(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)

	// Drive LRQ directly at the gatekeeper (the gateway's Fig 8 probe).
	probe := f.addProbe()
	f.sendRAS(t, probe, LRQ{Seq: 9, Alias: "85291110001"})
	lcf, ok := probe.lastRAS.(LCF)
	if !ok || lcf.SignalAddr != ipnet.MustAddr("192.168.1.10") {
		t.Fatalf("LRQ answer = %#v", probe.lastRAS)
	}

	// Unknown alias gets LRJ.
	f.sendRAS(t, probe, LRQ{Seq: 10, Alias: "10000000000"})
	if _, ok := probe.lastRAS.(LRJ); !ok {
		t.Fatalf("unknown alias answer = %#v", probe.lastRAS)
	}
}

func TestUnregister(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)
	body, err := MarshalRAS(URQ{Seq: 99, Alias: "85291110001"})
	if err != nil {
		t.Fatal(err)
	}
	f.env.Send("TERM-A", "LAN", ipnet.Packet{
		Src: ipnet.MustAddr("192.168.1.10"), Dst: ipnet.MustAddr("192.168.1.1"),
		Proto: ipnet.ProtoUDP, SrcPort: ipnet.PortRAS, DstPort: ipnet.PortRAS,
		Payload: body,
	})
	f.env.Run()
	if f.gk.Registered() != 1 {
		t.Fatalf("table entries after URQ = %d", f.gk.Registered())
	}
}

// rawProbe records decoded RAS answers.
type rawProbe struct {
	id      sim.NodeID
	addr    netip.Addr
	lastRAS sim.Message
}

// addProbe attaches a rawProbe to the LAN.
func (f *lanFixture) addProbe() *rawProbe {
	probe := &rawProbe{id: "PROBE", addr: ipnet.MustAddr("192.168.1.50")}
	f.env.AddNode(probe)
	f.router.AddHost(probe.addr, "PROBE")
	f.env.Connect("LAN", "PROBE", "IP", time.Millisecond)
	return probe
}

// sendRAS sends msg from probe to the gatekeeper and runs until quiet.
func (f *lanFixture) sendRAS(t *testing.T, probe *rawProbe, msg sim.Message) {
	t.Helper()
	body, err := MarshalRAS(msg)
	if err != nil {
		t.Fatal(err)
	}
	f.env.Send(probe.id, "LAN", ipnet.Packet{
		Src: probe.addr, Dst: ipnet.MustAddr("192.168.1.1"),
		Proto: ipnet.ProtoUDP, SrcPort: ipnet.PortRAS, DstPort: ipnet.PortRAS,
		Payload: body,
	})
	f.env.Run()
}

func (p *rawProbe) ID() sim.NodeID { return p.id }

func (p *rawProbe) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	pkt, ok := msg.(ipnet.Packet)
	if !ok {
		return
	}
	if m, err := UnmarshalRAS(pkt.Payload); err == nil {
		p.lastRAS = m
	}
}

type foreign struct{}

func (foreign) Name() string { return "X" }

func TestCallerCancelsBeforeAnswer(t *testing.T) {
	// B rings for a long time; A abandons during alerting.
	f := newLAN(t, TerminalConfig{}, TerminalConfig{AutoAnswer: true, AnswerDelay: 10 * time.Second})
	f.registerBoth(t)
	ref, err := f.a.Call(f.env, "85291110002")
	if err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	if st, _ := f.a.CallState(ref); st != LegAlerting {
		t.Fatalf("caller state = %v", st)
	}
	if err := f.a.Hangup(f.env, ref); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.a.ActiveCalls() != 0 || f.b.ActiveCalls() != 0 {
		t.Fatalf("calls a=%d b=%d after cancel", f.a.ActiveCalls(), f.b.ActiveCalls())
	}
	// The ringing callee never answers later (its answer timer finds the
	// call cleared).
	f.env.RunUntil(f.env.Now() + 15*time.Second)
	if f.b.ActiveCalls() != 0 {
		t.Fatal("abandoned call came back to life")
	}
}

func TestHangupUnknownRefFails(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)
	if err := f.a.Hangup(f.env, 999); err == nil {
		t.Fatal("hangup of unknown ref accepted")
	}
}

// TestRegistrationTTLExpires covers the H.225 timeToLive behaviour: a
// registration that is not refreshed lapses, stops resolving for location
// and admission, and a late keepalive is told to register fully.
func TestRegistrationTTLExpires(t *testing.T) {
	f := newLANWithGK(t, func(cfg *GatekeeperConfig) {
		cfg.RegistrationTTL = 10 * time.Second
	}, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)

	reg, ok := f.gk.Lookup("85291110001")
	if !ok {
		t.Fatal("terminal A not registered")
	}
	if reg.ExpiresAt == 0 {
		t.Fatal("TTL-granting gatekeeper recorded no expiry")
	}

	// Past the TTL, admission to the lapsed callee is rejected.
	f.env.RunUntil(f.env.Now() + 15*time.Second)
	if _, err := f.a.Call(f.env, "85291110002"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if f.b.ActiveCalls() != 0 {
		t.Fatal("call reached an endpoint whose registration expired")
	}
	if _, rejected := f.gk.Admissions(); rejected == 0 {
		t.Fatal("no admission rejection counted")
	}
	// The ARQ that found the callee lapsed dropped its row.
	if _, ok := f.gk.Lookup("85291110002"); ok {
		t.Fatal("lapsed callee registration survived its ARJ")
	}

	// A late keepalive is told to register fully.
	f.rec.Reset()
	f.a.StartKeepAlive(f.env, time.Minute)
	f.env.RunUntil(f.env.Now() + time.Second)
	rrj, ok := f.rec.First(trace.Step{Msg: "RAS RRJ"})
	if !ok || rrj.Msg.(RRJ).Reason != RejectFullRegistrationRequired {
		t.Fatalf("late keepalive answered %+v (found %v), want full registration required", rrj.Msg, ok)
	}
}

// TestGrantTTLClampsToFieldWidth: the RCF's timeToLive is 16 bits wide, so
// a configured TTL past 65,535 s grants the widest lifetime the field holds
// instead of wrapping to a short one.
func TestGrantTTLClampsToFieldWidth(t *testing.T) {
	for _, c := range []struct {
		ttl       time.Duration
		requested uint16
		want      uint16
	}{
		{0, 0, 0},
		{500 * time.Millisecond, 0, 1},
		{10 * time.Second, 0, 10},
		{10 * time.Second, 4, 4},
		{18 * time.Hour, 0, 64800},
		{65536 * time.Second, 0, 65535},
		{24 * time.Hour, 0, 65535},
		{24 * time.Hour, 600, 600},
	} {
		g := NewGatekeeper(GatekeeperConfig{RegistrationTTL: c.ttl})
		if got := g.grantTTL(c.requested); got != c.want {
			t.Errorf("TTL %v, requested %d s: granted %d s, want %d s", c.ttl, c.requested, got, c.want)
		}
	}
}

// TestKeepAliveHoldsRegistration runs both terminals with periodic
// keepalive refreshes under a TTL-enforcing gatekeeper: the rows stay live
// well past several lifetimes, and calls still connect.
func TestKeepAliveHoldsRegistration(t *testing.T) {
	f := newLANWithGK(t, func(cfg *GatekeeperConfig) {
		cfg.RegistrationTTL = 10 * time.Second
	}, TerminalConfig{AutoAnswer: true}, TerminalConfig{AutoAnswer: true})
	f.registerBoth(t)
	f.a.StartKeepAlive(f.env, 4*time.Second)
	f.b.StartKeepAlive(f.env, 4*time.Second)

	f.env.RunUntil(f.env.Now() + 60*time.Second)
	for _, alias := range []gsmid.MSISDN{"85291110001", "85291110002"} {
		if reg, ok := f.gk.Lookup(alias); !ok || reg.ExpiresAt <= f.env.Now() {
			t.Fatalf("%s lapsed despite keepalives (%+v, %v)", alias, reg, ok)
		}
	}
	if _, err := f.a.Call(f.env, "85291110002"); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 5*time.Second)
	if f.b.ActiveCalls() != 1 {
		t.Fatal("call failed after 6 keepalive cycles")
	}
}

// TestKeepAliveRecoversLostRow makes the gatekeeper lose a row mid-life (a
// sweep after expiry, e.g. a gatekeeper restart): the next keepalive is
// answered with "full registration required" and the terminal re-registers
// on its own.
func TestKeepAliveRecoversLostRow(t *testing.T) {
	f := newLANWithGK(t, func(cfg *GatekeeperConfig) {
		cfg.RegistrationTTL = 30 * time.Second
	}, TerminalConfig{}, TerminalConfig{})
	f.registerBoth(t)
	// Keepalive slower than the TTL: the row WILL lapse between refreshes.
	f.a.StartKeepAlive(f.env, 45*time.Second)

	f.env.RunUntil(f.env.Now() + 100*time.Second)
	if _, ok := f.gk.Lookup("85291110001"); !ok {
		t.Fatal("terminal A did not recover its registration")
	}
	reg, _ := f.gk.Lookup("85291110001")
	if f.env.Now() >= reg.ExpiresAt {
		t.Fatal("recovered registration is already expired")
	}
}

// TestTerminalScopesCallRefsPerPeer: two callers place their first call
// (both use Q.931 reference 1) to the same terminal. References are scoped
// per signalling connection, so the callee must hold two distinct calls,
// answer both, and clear them independently.
func TestTerminalScopesCallRefsPerPeer(t *testing.T) {
	f := newLAN(t, TerminalConfig{}, TerminalConfig{})
	// Third terminal: the callee, auto-answering.
	cAddr := ipnet.MustAddr("192.168.1.12")
	c := NewTerminal(TerminalConfig{
		ID: "TERM-C", Alias: "85291110003", Addr: cAddr,
		Router: "LAN", Gatekeeper: ipnet.MustAddr("192.168.1.1"), Dir: f.dir,
		AutoAnswer: true, AnswerDelay: 10 * time.Millisecond,
	})
	f.dir.Bind(cAddr, "TERM-C")
	f.router.AddHost(cAddr, "TERM-C")
	f.env.AddNode(c)
	f.env.Connect("LAN", "TERM-C", "IP", time.Millisecond)
	c.Register(f.env)
	f.registerBoth(t)

	refA, err := f.a.Call(f.env, "85291110003")
	if err != nil {
		t.Fatal(err)
	}
	refB, err := f.b.Call(f.env, "85291110003")
	if err != nil {
		t.Fatal(err)
	}
	if refA != refB {
		t.Fatalf("test premise broken: refs %d vs %d should collide", refA, refB)
	}
	f.env.Run()

	if c.ActiveCalls() != 2 {
		t.Fatalf("callee holds %d calls, want 2", c.ActiveCalls())
	}
	stA, _ := f.a.CallState(refA)
	stB, _ := f.b.CallState(refB)
	if stA != LegConnected || stB != LegConnected {
		t.Fatalf("states A=%v B=%v", stA, stB)
	}

	// Clearing one caller's call must not disturb the other.
	if err := f.a.Hangup(f.env, refA); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if c.ActiveCalls() != 1 {
		t.Fatalf("callee holds %d calls after one hangup, want 1", c.ActiveCalls())
	}
	stB, _ = f.b.CallState(refB)
	if stB != LegConnected {
		t.Fatal("clearing A's call disturbed B's")
	}

	// The gatekeeper admitted two distinct calls despite the shared
	// reference, and only A's is closed.
	if active, calls, _ := f.gk.Calls(); active != 1 || calls != 1 {
		t.Fatalf("gatekeeper: %d active, %d disengaged; want 1/1", active, calls)
	}

	// A DRQ that names no open call — no alias, B's reference — is still
	// confirmed, and closes nothing.
	probe := f.addProbe()
	f.sendRAS(t, probe, DRQ{Seq: 77, CallRef: refB})
	if dcf, ok := probe.lastRAS.(DCF); !ok || dcf.Seq != 77 {
		t.Fatalf("DRQ answered %#v, want DCF 77", probe.lastRAS)
	}
	if active, calls, _ := f.gk.Calls(); active != 1 || calls != 1 {
		t.Fatalf("stray DRQ closed a call: %d active, %d disengaged", active, calls)
	}
}

// TestHangupDuringAdmission hangs the caller up while its ARQ is still in
// flight. The call has no far end yet: no Setup may follow the ACF, and the
// gatekeeper must end with the call it admitted closed — also when the first
// ARQ is lost and only its retransmission, sent after the hang-up, admits
// the call.
func TestHangupDuringAdmission(t *testing.T) {
	for _, loseARQ := range []bool{false, true} {
		f := newLAN(t, TerminalConfig{SigRTO: 100 * time.Millisecond}, TerminalConfig{AutoAnswer: true})
		f.registerBoth(t)
		up := f.env.LinkBetween("TERM-A", "LAN")
		up.Down = loseARQ
		ref, err := f.a.Call(f.env, "85291110002")
		if err != nil {
			t.Fatal(err)
		}
		up.Down = false
		if err := f.a.Hangup(f.env, ref); err != nil {
			t.Fatal(err)
		}
		f.env.Run()
		if f.a.ActiveCalls() != 0 || f.b.ActiveCalls() != 0 {
			t.Fatalf("lost ARQ %v: calls a=%d b=%d", loseARQ, f.a.ActiveCalls(), f.b.ActiveCalls())
		}
		if e, sent := f.rec.First(trace.Step{Msg: q931.Setup{}.Name()}); sent {
			t.Fatalf("lost ARQ %v: a Setup was sent at %v", loseARQ, e.At)
		}
		if _, sent := f.rec.First(trace.Step{Msg: q931.ReleaseComplete{}.Name()}); sent {
			t.Fatalf("lost ARQ %v: a Release Complete was sent before there was a far end", loseARQ)
		}
		if active, calls, _ := f.gk.Calls(); active != 0 || calls != 1 {
			t.Fatalf("lost ARQ %v: gatekeeper %d active, %d disengaged; want 0/1", loseARQ, active, calls)
		}
	}
}

// TestClearedCallsLeaveTerminal: a terminal holds only live calls. After
// calls in both directions, each cleared from either side, neither
// terminal's map nor the gatekeeper holds anything.
func TestClearedCallsLeaveTerminal(t *testing.T) {
	f := newLAN(t, TerminalConfig{AutoAnswer: true}, TerminalConfig{AutoAnswer: true})
	f.registerBoth(t)
	const n = 50
	for i := 0; i < 2*n; i++ {
		from, to, alias := f.a, f.b, gsmid.MSISDN("85291110002")
		if i%2 == 1 {
			from, to, alias = f.b, f.a, "85291110001"
		}
		ref, err := from.Call(f.env, alias)
		if err != nil {
			t.Fatal(err)
		}
		f.env.Run()
		hanger := from
		if i%4 >= 2 {
			hanger, ref = to, to.CallRefs()[0]
		}
		if err := hanger.Hangup(f.env, ref); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		f.env.Run()
	}
	if len(f.a.calls) != 0 || len(f.b.calls) != 0 {
		t.Fatalf("terminals hold %d and %d calls after %d cleared", len(f.a.calls), len(f.b.calls), 2*n)
	}
	if active, calls, _ := f.gk.Calls(); active != 0 || calls != 2*n {
		t.Fatalf("gatekeeper: %d active, %d disengaged; want 0/%d", active, calls, 2*n)
	}
}

// TestDirectoryIsIPv4Only: bindings key on the 4-byte address form; anything
// else is ignored on Bind and resolves to its synthetic name. A cell is that
// address and a 4-byte node symbol: 8 bytes.
func TestDirectoryIsIPv4Only(t *testing.T) {
	dir := NewDirectory()
	v4, v6 := ipnet.MustAddr("10.1.1.7"), ipnet.MustAddr("2001:db8::7")
	dir.Bind(v4, "MS-7")
	dir.Bind(v6, "MS-7")
	if got := dir.Bound(); got != 1 {
		t.Fatalf("bound = %d, want 1 (the IPv4 binding)", got)
	}
	if got := dir.Resolve(v4); got != "MS-7" {
		t.Fatalf("Resolve(%s) = %q", v4, got)
	}
	if got := dir.Resolve(v6); got != sim.NodeID(v6.String()) {
		t.Fatalf("Resolve(%s) = %q, want the synthetic name", v6, got)
	}
	dir.Unbind(v6)
	dir.Unbind(v4)
	if got := dir.Bound(); got != 0 {
		t.Fatalf("bound after unbind = %d", got)
	}
	if got, cells, cell := dir.Footprint(), 16, 8; got != cells*cell {
		t.Fatalf("footprint = %d B, want the first %d cells of %d bytes", got, cells, cell)
	}
}

// TestSendWithoutTracerResolvesNothing: the directory lookup behind a logical
// trace arrow (a probe, a symbol read) is only worth doing when a tracer will
// record the arrow.
func TestSendWithoutTracerResolvesNothing(t *testing.T) {
	env := sim.NewEnv(1)
	sent := 0
	ep := Endpoint{
		Node: "TERM", Addr: ipnet.MustAddr("192.168.1.10"),
		Send: func(*sim.Env, ipnet.Packet) { sent++ },
		Dir:  &Directory{}, // no table: a Resolve would panic here
	}
	gk := ipnet.MustAddr("192.168.1.1")
	ep.SendRAS(env, gk, RRQ{Seq: 1, Alias: "85291110001"})
	ep.SendQ931(env, gk, q931.ReleaseComplete{CallRef: 1})
	if sent != 2 {
		t.Fatalf("sent %d packets, want 2", sent)
	}
	rec := trace.NewRecorder()
	env.SetTracer(rec)
	ep.Dir = NewDirectory()
	ep.Dir.Bind(gk, "GK")
	ep.SendRAS(env, gk, RRQ{Seq: 2, Alias: "85291110001"})
	if e, ok := rec.First(trace.Step{Msg: RRQ{}.Name()}); !ok || e.From != "TERM" || e.To != "GK" || e.Iface != "RAS" {
		t.Fatalf("traced send did not note the arrow to the resolved peer:\n%s", rec.Dump())
	}
}
