package gprs

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/hlr"
	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
)

const testIMSI = gsmid.IMSI("466920000000001")

func TestSMCodecRoundTrip(t *testing.T) {
	msgs := []sim.Message{
		AttachRequest{IMSI: testIMSI},
		AttachAccept{PTMSI: 0xBEEF},
		AttachReject{Cause: SMCauseUnknownSubscriber},
		DetachRequest{},
		DetachAccept{},
		ActivatePDPRequest{NSAPI: 5, QoS: gtp.SignallingQoS(), RequestedAddress: "10.0.0.9"},
		ActivatePDPAccept{NSAPI: 5, Address: "10.1.1.1", QoS: gtp.VoiceQoS()},
		ActivatePDPReject{NSAPI: 5, Cause: SMCauseNoResources},
		DeactivatePDPRequest{NSAPI: 6},
		DeactivatePDPAccept{NSAPI: 6},
		RequestPDPActivation{Address: "10.0.0.9"},
		RAUpdateRequest{RAI: gsmid.RAI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 9}, RAC: 3}},
		RAUpdateAccept{RAI: gsmid.RAI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 9}, RAC: 3}},
	}
	for _, m := range msgs {
		b, err := MarshalSM(m)
		if err != nil {
			t.Fatalf("MarshalSM(%T): %v", m, err)
		}
		got, err := UnmarshalSM(b)
		if err != nil {
			t.Fatalf("UnmarshalSM(%T): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %#v -> %#v", m, got)
		}
	}
}

func TestSMCodecErrors(t *testing.T) {
	if _, err := UnmarshalSM([]byte{99}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unknown opcode err = %v", err)
	}
	if _, err := UnmarshalSM(nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("empty err = %v", err)
	}
	b, err := MarshalSM(DetachRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSM(append(b, 1)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing err = %v", err)
	}
	if _, err := MarshalSM(foreignMsg{}); err == nil {
		t.Error("foreign type accepted")
	}
}

func TestLLCFraming(t *testing.T) {
	pdu, err := WrapSM(AttachRequest{IMSI: testIMSI})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePDU(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.IsData {
		t.Fatal("signalling PDU parsed as data")
	}
	if _, ok := parsed.SM.(AttachRequest); !ok {
		t.Fatalf("SM = %T", parsed.SM)
	}

	pkt := ipnet.Packet{
		Src: ipnet.MustAddr("10.1.1.1"), Dst: ipnet.MustAddr("192.168.1.1"),
		Proto: ipnet.ProtoUDP, SrcPort: 1, DstPort: 2, Payload: []byte("x"),
	}
	dataPDU := WrapData(5, pkt)
	parsed, err = ParsePDU(dataPDU)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.IsData || parsed.NSAPI != 5 || parsed.Packet.Dst != pkt.Dst {
		t.Fatalf("parsed = %+v", parsed)
	}
}

func TestLLCFramingErrors(t *testing.T) {
	for _, bad := range [][]byte{nil, {9}, {sapiData}, {sapiData, 5, 0xFF}} {
		if _, err := ParsePDU(bad); err == nil {
			t.Errorf("ParsePDU(% X) accepted", bad)
		}
	}
}

func TestSMCauseStrings(t *testing.T) {
	if SMCauseNoResources.String() != "no-resources" || SMCause(99).String() != "SMCause(99)" {
		t.Fatal("cause strings wrong")
	}
}

// ipHost is a test IP endpoint on the Gi network that echoes UDP packets.
type ipHost struct {
	id   sim.NodeID
	addr netip.Addr
	got  []ipnet.Packet
	echo bool
}

func (h *ipHost) ID() sim.NodeID { return h.id }

func (h *ipHost) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	pkt, ok := msg.(ipnet.Packet)
	if !ok {
		return
	}
	h.got = append(h.got, pkt)
	if h.echo {
		env.Send(h.id, from, pkt.Reply([]byte("echo:"+string(pkt.Payload))))
	}
}

type coreFixture struct {
	env    *sim.Env
	ms     *MS
	sgsn   *SGSN
	ggsn   *GGSN
	hlr    *hlr.HLR
	router *ipnet.Router
	host   *ipHost
}

// newCoreFixture wires the full Fig 1 topology:
// MS -Um- BTS -Abis- BSC(PCU) -Gb- SGSN -Gn- GGSN -Gi- Router - Host,
// with HLR reachable over Gr (SGSN) and Gc (GGSN).
func newCoreFixture(t *testing.T, ggsnCfg GGSNConfig, sgsnCfg SGSNConfig) *coreFixture {
	t.Helper()
	env := sim.NewEnv(1)

	h := hlr.New(hlr.Config{ID: "HLR"})
	if err := h.Provision(hlr.Subscriber{IMSI: testIMSI, MSISDN: "886912345678"}); err != nil {
		t.Fatal(err)
	}

	if sgsnCfg.ID == "" {
		sgsnCfg.ID = "SGSN-1"
	}
	sgsnCfg.GGSN = "GGSN-1"
	sgsnCfg.HLR = "HLR"
	sgsn := NewSGSN(sgsnCfg)

	ggsnCfg.ID = "GGSN-1"
	ggsnCfg.Gi = "GI"
	if ggsnCfg.HLR == "" {
		ggsnCfg.HLR = "HLR"
	}
	ggsn := NewGGSN(ggsnCfg)

	router := ipnet.NewRouter("GI")
	host := &ipHost{id: "HOST", addr: ipnet.MustAddr("192.168.1.10"), echo: true}
	router.AddHost(host.addr, "HOST")
	router.AddPrefix(netip.MustParsePrefix("10.1.1.0/24"), "GGSN-1")

	ms := NewMS(MSConfig{ID: "MS-1", IMSI: testIMSI, BTS: "BTS-1"})
	bts := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-1", BSC: "BSC-1"})
	bsc := gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-1", MSC: "MSC-X", SGSN: "SGSN-1", BTSs: []sim.NodeID{"BTS-1"},
	})
	// The BSC requires an MSC link even though this test never uses CS.
	mscStub := &ipHost{id: "MSC-X"}

	for _, n := range []sim.Node{h, sgsn, ggsn, router, host, ms, bts, bsc, mscStub} {
		env.AddNode(n)
	}
	env.Connect("MS-1", "BTS-1", "Um", time.Millisecond)
	env.Connect("BTS-1", "BSC-1", "Abis", time.Millisecond)
	env.Connect("BSC-1", "MSC-X", "A", time.Millisecond)
	env.Connect("BSC-1", "SGSN-1", "Gb", time.Millisecond)
	env.Connect("SGSN-1", "GGSN-1", "Gn", time.Millisecond)
	env.Connect("SGSN-1", "HLR", "Gr", time.Millisecond)
	env.Connect("GGSN-1", "HLR", "Gc", time.Millisecond)
	env.Connect("GGSN-1", "GI", "Gi", time.Millisecond)
	env.Connect("GI", "HOST", "IP", time.Millisecond)

	return &coreFixture{env: env, ms: ms, sgsn: sgsn, ggsn: ggsn, hlr: h, router: router, host: host}
}

func (f *coreFixture) attach(t *testing.T) {
	t.Helper()
	attached := false
	if err := f.ms.Client.Attach(f.env, func(ok bool) { attached = ok }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !attached {
		t.Fatal("attach failed")
	}
}

func (f *coreFixture) activate(t *testing.T, nsapi uint8, qos gtp.QoSProfile, req string) netip.Addr {
	t.Helper()
	var addr netip.Addr
	ok := false
	if err := f.ms.Client.ActivatePDP(f.env, nsapi, qos, req, func(a netip.Addr, k bool) {
		addr, ok = a, k
	}); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !ok {
		t.Fatal("PDP activation failed")
	}
	return addr
}

func TestAttachUpdatesHLR(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	if !f.ms.Client.Attached() {
		t.Fatal("client not attached")
	}
	if f.sgsn.Attached() != 1 {
		t.Fatalf("SGSN.Attached = %d", f.sgsn.Attached())
	}
	rec, _ := f.hlr.Lookup(testIMSI)
	if rec.SGSN != "SGSN-1" {
		t.Fatalf("HLR SGSN = %q", rec.SGSN)
	}
	// After attach the client uses a local TLLI.
	if uint32(f.ms.Client.TLLI())&0xC0000000 != 0xC0000000 {
		t.Fatal("post-attach TLLI is not local")
	}
}

func TestAttachUnknownIMSIRejected(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	bad := NewMS(MSConfig{ID: "MS-BAD", IMSI: "466929999999999", BTS: "BTS-1"})
	f.env.AddNode(bad)
	f.env.Connect("MS-BAD", "BTS-1", "Um", time.Millisecond)
	result := true
	if err := bad.Client.Attach(f.env, func(ok bool) { result = ok }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if result {
		t.Fatal("unknown IMSI attach accepted")
	}
}

func TestActivateDynamicPDP(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	addr := f.activate(t, 5, gtp.SignallingQoS(), "")
	if !addr.IsValid() {
		t.Fatal("no address assigned")
	}
	if f.sgsn.ActiveContexts() != 1 || f.ggsn.ActiveContexts() != 1 {
		t.Fatalf("contexts sgsn=%d ggsn=%d", f.sgsn.ActiveContexts(), f.ggsn.ActiveContexts())
	}
	ctx, ok := f.ms.Client.Context(5)
	if !ok || ctx.Address != addr {
		t.Fatalf("client context = %+v/%v", ctx, ok)
	}
}

func TestActivateStaticAddress(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	addr := f.activate(t, 5, gtp.SignallingQoS(), "10.1.1.200")
	if addr.String() != "10.1.1.200" {
		t.Fatalf("addr = %s", addr)
	}
}

// TestActivateNonIPv4AddressRefused: the GGSN's address index keys on the
// 4-byte form, so a static IPv6 PDP address is refused where it enters, with
// the cause a malformed address gets, and leaves nothing behind.
func TestActivateNonIPv4AddressRefused(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	for _, req := range []string{"2001:db8::1", "::ffff:10.1.1.200"} {
		ok := true
		if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), req,
			func(_ netip.Addr, k bool) { ok = k }); err != nil {
			t.Fatal(err)
		}
		f.env.Run()
		if ok {
			t.Fatalf("activation with PDP address %s accepted", req)
		}
	}
	if n := f.ggsn.ActiveContexts() + f.sgsn.ActiveContexts() + f.ms.Client.ActiveContexts(); n != 0 {
		t.Fatalf("%d contexts left behind", n)
	}
	if imb := f.ggsn.SlabImbalance() + f.sgsn.SlabImbalance(); imb != 0 {
		t.Fatalf("slab imbalance = %d", imb)
	}
}

func TestActivateDuplicateNSAPIRejected(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")
	if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.VoiceQoS(), "", func(netip.Addr, bool) {}); err == nil {
		t.Fatal("client allowed duplicate NSAPI")
	}
}

func TestActivateBeyondMaxContextsRejected(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{MaxContexts: 1})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")
	ok := true
	if err := f.ms.Client.ActivatePDP(f.env, 6, gtp.VoiceQoS(), "", func(_ netip.Addr, k bool) { ok = k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if ok {
		t.Fatal("activation beyond MaxContexts accepted")
	}
}

func TestEndToEndDataPath(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	addr := f.activate(t, 5, gtp.SignallingQoS(), "")

	var rx []ipnet.Packet
	f.ms.Client.OnPacket = func(_ *sim.Env, nsapi uint8, pkt ipnet.Packet) {
		rx = append(rx, pkt)
	}
	err := f.ms.Client.SendIP(f.env, 5, ipnet.Packet{
		Dst: f.host.addr, Proto: ipnet.ProtoUDP, SrcPort: 1000, DstPort: 2000,
		Payload: []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.env.Run()

	// The host saw the uplink packet with the PDP address as source
	// (Fig 1 data path (1)(2)(3)(4)).
	if len(f.host.got) != 1 {
		t.Fatalf("host got %d packets", len(f.host.got))
	}
	if f.host.got[0].Src != addr || string(f.host.got[0].Payload) != "hello" {
		t.Fatalf("host packet = %+v", f.host.got[0])
	}
	// The echo came back down the tunnel to the client.
	if len(rx) != 1 || string(rx[0].Payload) != "echo:hello" {
		t.Fatalf("client rx = %+v", rx)
	}
	ul, dl := f.sgsn.Forwarded()
	if ul != 1 || dl != 1 {
		t.Fatalf("SGSN forwarded ul=%d dl=%d", ul, dl)
	}
}

func TestDeactivateReleasesAddress(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	addr := f.activate(t, 5, gtp.SignallingQoS(), "")
	done := false
	if err := f.ms.Client.DeactivatePDP(f.env, 5, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done {
		t.Fatal("deactivate did not complete")
	}
	if f.sgsn.ActiveContexts() != 0 || f.ggsn.ActiveContexts() != 0 {
		t.Fatal("contexts leaked")
	}
	// The released address is reusable.
	got := f.activate(t, 5, gtp.SignallingQoS(), "")
	if got != addr {
		t.Fatalf("expected address reuse %s, got %s", addr, got)
	}
}

func TestDetachCleansUp(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")
	done := false
	if err := f.ms.Client.Detach(f.env, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done || f.ms.Client.Attached() {
		t.Fatal("detach did not complete")
	}
	if f.sgsn.Attached() != 0 || f.sgsn.ActiveContexts() != 0 {
		t.Fatalf("SGSN state leaked: attached=%d contexts=%d", f.sgsn.Attached(), f.sgsn.ActiveContexts())
	}
	if f.ms.Client.ActiveContexts() != 0 {
		t.Fatal("client contexts leaked")
	}
	// The tunnels were deleted at the GGSN too (a re-attach must not
	// collide with stale TIDs).
	if f.ggsn.ActiveContexts() != 0 {
		t.Fatalf("GGSN contexts leaked: %d", f.ggsn.ActiveContexts())
	}
}

func TestNetworkInitiatedActivation(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{NetworkInitiatedActivation: true}, SGSNConfig{})
	staticAddr := ipnet.MustAddr("10.1.1.250")
	f.ggsn.ProvisionStatic(staticAddr, testIMSI)
	f.router.AddPrefix(netip.MustParsePrefix("10.1.1.250/32"), "GGSN-1")
	f.attach(t)

	// The MS-side policy: on a network activation request, activate with
	// the requested static address (what a TR 23.923 terminal would do).
	var rx []ipnet.Packet
	f.ms.Client.OnPacket = func(_ *sim.Env, _ uint8, pkt ipnet.Packet) { rx = append(rx, pkt) }
	f.ms.Client.OnActivationRequest = func(env *sim.Env, address string) {
		_ = f.ms.Client.ActivatePDP(env, 5, gtp.SignallingQoS(), address, func(netip.Addr, bool) {})
	}

	// Downlink packet arrives for the static address with no context.
	f.env.Send("HOST", "GI", ipnet.Packet{
		Src: f.host.addr, Dst: staticAddr,
		Proto: ipnet.ProtoUDP, SrcPort: 9, DstPort: 9, Payload: []byte("wake"),
	})
	f.env.Run()

	if len(rx) != 1 || string(rx[0].Payload) != "wake" {
		t.Fatalf("client rx = %+v (network-initiated activation failed)", rx)
	}
	if f.ggsn.ActiveContexts() != 1 {
		t.Fatalf("GGSN contexts = %d", f.ggsn.ActiveContexts())
	}
}

func TestDownlinkWithoutContextDropsWhenDisabled(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.env.Send("HOST", "GI", ipnet.Packet{
		Src: f.host.addr, Dst: ipnet.MustAddr("10.1.1.77"),
		Proto: ipnet.ProtoUDP, Payload: []byte("lost"),
	})
	f.env.Run()
	if _, _, dropped := f.ggsn.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestGTPEcho(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.env.Send("SGSN-1", "GGSN-1", gtp.EchoRequest{Seq: 42})
	f.env.Run()
	// No assertion on internals needed: absence of panics plus the
	// response being routed back (SGSN handles EchoRequest only; the
	// response is dropped silently) exercises the path. Send the reverse
	// direction too.
	f.env.Send("GGSN-1", "SGSN-1", gtp.EchoRequest{Seq: 43})
	f.env.Run()
}

func TestClientGuards(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	c := f.ms.Client
	if err := c.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "", nil); err == nil {
		t.Error("activate before attach accepted")
	}
	if err := c.Detach(f.env, nil); err == nil {
		t.Error("detach before attach accepted")
	}
	if err := c.SendIP(f.env, 5, ipnet.Packet{}); err == nil {
		t.Error("SendIP without context accepted")
	}
	if err := c.DeactivatePDP(f.env, 5, nil); err == nil {
		t.Error("deactivate without context accepted")
	}
	f.attach(t)
	if err := c.Attach(f.env, nil); err == nil {
		t.Error("double attach accepted")
	}
}

func TestSMRoundTripProperty(t *testing.T) {
	prop := func(nsapi, prec uint8, kbps uint16, rt bool, addr []byte) bool {
		addrStr := ""
		if len(addr) > 0 {
			addrStr = netip.AddrFrom4([4]byte{10, 1, 1, addr[0]}).String()
		}
		m := ActivatePDPRequest{
			NSAPI:            nsapi,
			QoS:              gtp.QoSProfile{Precedence: prec, PeakThroughputKbps: kbps, Realtime: rt},
			RequestedAddress: addrStr,
		}
		b, err := MarshalSM(m)
		if err != nil {
			return false
		}
		got, err := UnmarshalSM(b)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type foreignMsg struct{}

func (foreignMsg) Name() string { return "X" }

func TestQoSNegotiationCapsThroughput(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{MaxKbps: 16}, SGSNConfig{})
	f.attach(t)
	var negotiated gtp.QoSProfile
	if err := f.ms.Client.ActivatePDP(f.env, 6, gtp.VoiceQoS(), "", func(netip.Addr, bool) {}); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	ctx, ok := f.ms.Client.Context(6)
	if !ok {
		t.Fatal("activation failed")
	}
	negotiated = ctx.QoS
	if negotiated.PeakThroughputKbps != 16 {
		t.Fatalf("negotiated rate = %d, want capped at 16", negotiated.PeakThroughputKbps)
	}
	// Other fields survive the negotiation unchanged.
	if !negotiated.Realtime || negotiated.Precedence != gtp.VoiceQoS().Precedence {
		t.Fatalf("negotiated profile mangled: %+v", negotiated)
	}
}

func TestRoutingAreaUpdate(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")

	done := false
	newRAI := gsmid.RAI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 9}, RAC: 2}
	if err := f.ms.Client.UpdateRoutingArea(f.env, newRAI, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !done {
		t.Fatal("RAU did not complete")
	}
	// The attach and the PDP context survive the update.
	if !f.ms.Client.Attached() || f.ms.Client.ActiveContexts() != 1 {
		t.Fatalf("attached=%v contexts=%d", f.ms.Client.Attached(), f.ms.Client.ActiveContexts())
	}
	if f.sgsn.ActiveContexts() != 1 {
		t.Fatalf("SGSN contexts = %d", f.sgsn.ActiveContexts())
	}
	// Data still flows after the update.
	var rx int
	f.ms.Client.OnPacket = func(*sim.Env, uint8, ipnet.Packet) { rx++ }
	if err := f.ms.Client.SendIP(f.env, 5, ipnet.Packet{
		Dst: f.host.addr, Proto: ipnet.ProtoUDP, Payload: []byte("post-rau"),
	}); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if rx != 1 {
		t.Fatalf("post-RAU echoes = %d", rx)
	}
}

func TestRAUBeforeAttachFails(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	if err := f.ms.Client.UpdateRoutingArea(f.env, gsmid.RAI{}, nil); err == nil {
		t.Fatal("RAU before attach accepted")
	}
}

// TestInterSGSNCancelLocation covers GSM 03.60 inter-SGSN mobility: when a
// subscriber attaches through a new SGSN, the HLR cancels the old SGSN,
// which must purge its MM and PDP state and tear down the GGSN tunnels so
// the TIDs (derived from IMSI+NSAPI) are free for re-activation.
func TestInterSGSNCancelLocation(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	f.activate(t, 5, gtp.SignallingQoS(), "")
	if f.sgsn.ActiveContexts() != 1 || f.ggsn.ActiveContexts() != 1 {
		t.Fatalf("before move: sgsn=%d ggsn=%d contexts",
			f.sgsn.ActiveContexts(), f.ggsn.ActiveContexts())
	}

	// Second routing area: BTS-2 / BSC-2 / SGSN-2 sharing GGSN and HLR.
	sgsn2 := NewSGSN(SGSNConfig{ID: "SGSN-2", GGSN: "GGSN-1", HLR: "HLR"})
	ms2 := NewMS(MSConfig{ID: "MS-1b", IMSI: testIMSI, BTS: "BTS-2"})
	bts2 := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-2", BSC: "BSC-2"})
	bsc2 := gsm.NewBSC(gsm.BSCConfig{
		ID: "BSC-2", MSC: "MSC-X", SGSN: "SGSN-2", BTSs: []sim.NodeID{"BTS-2"},
	})
	for _, n := range []sim.Node{sgsn2, ms2, bts2, bsc2} {
		f.env.AddNode(n)
	}
	f.env.Connect("MS-1b", "BTS-2", "Um", time.Millisecond)
	f.env.Connect("BTS-2", "BSC-2", "Abis", time.Millisecond)
	f.env.Connect("BSC-2", "MSC-X", "A", time.Millisecond)
	f.env.Connect("BSC-2", "SGSN-2", "Gb", time.Millisecond)
	f.env.Connect("SGSN-2", "GGSN-1", "Gn", time.Millisecond)
	f.env.Connect("SGSN-2", "HLR", "Gr", time.Millisecond)

	attached := false
	if err := ms2.Client.Attach(f.env, func(ok bool) { attached = ok }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !attached {
		t.Fatal("attach at SGSN-2 failed")
	}

	if rec, _ := f.hlr.Lookup(testIMSI); rec.SGSN != "SGSN-2" {
		t.Fatalf("HLR SGSN = %q, want SGSN-2", rec.SGSN)
	}
	if f.sgsn.Attached() != 0 || f.sgsn.ActiveContexts() != 0 {
		t.Fatalf("old SGSN not cancelled: attached=%d contexts=%d",
			f.sgsn.Attached(), f.sgsn.ActiveContexts())
	}
	if f.ggsn.ActiveContexts() != 0 {
		t.Fatalf("GGSN still holds %d contexts after cancel", f.ggsn.ActiveContexts())
	}

	// The TID for (IMSI, NSAPI 5) must be free again: re-activate at SGSN-2.
	var ok bool
	if err := ms2.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(_ netip.Addr, k bool) { ok = k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !ok {
		t.Fatal("re-activation at SGSN-2 failed (stale TID at GGSN?)")
	}
	if sgsn2.ActiveContexts() != 1 || f.ggsn.ActiveContexts() != 1 {
		t.Fatalf("after move: sgsn2=%d ggsn=%d contexts",
			sgsn2.ActiveContexts(), f.ggsn.ActiveContexts())
	}
}

// TestPathSupervisionDetectsGGSNOutage drives the GSM 09.60 Echo-based
// path management: a dead Gn path is declared down after the miss
// threshold, activations then fail fast with a network-failure cause, and
// the path recovers when echoes flow again.
func TestPathSupervisionDetectsGGSNOutage(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{
		EchoInterval: 100 * time.Millisecond,
		EchoMisses:   3,
	})
	f.attach(t)
	f.sgsn.StartPathSupervision(f.env)
	f.env.RunUntil(f.env.Now() + time.Second)
	if !f.sgsn.PathUp() {
		t.Fatal("path down with a healthy GGSN")
	}

	gn := f.env.LinkBetween("SGSN-1", "GGSN-1")
	ng := f.env.LinkBetween("GGSN-1", "SGSN-1")
	gn.Down, ng.Down = true, true
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.sgsn.PathUp() {
		t.Fatal("path still up after 10 missed echoes")
	}

	// Activation now fails fast with a reject, not a client timeout.
	start := f.env.Now()
	var done, ok bool
	if err := f.ms.Client.ActivatePDP(f.env, 6, gtp.VoiceQoS(), "",
		func(_ netip.Addr, k bool) { done, ok = true, k }); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 10*time.Second)
	if !done || ok {
		t.Fatalf("activation on a down path: done=%v ok=%v", done, ok)
	}
	if elapsed := f.env.Now() - start; elapsed > 10*time.Second {
		t.Fatalf("reject took %v, want fast-fail", elapsed)
	}

	// Recovery: echoes flow again, the path comes back, activation works.
	gn.Down, ng.Down = false, false
	f.env.RunUntil(f.env.Now() + time.Second)
	if !f.sgsn.PathUp() {
		t.Fatal("path did not recover")
	}
	var rok bool
	if err := f.ms.Client.ActivatePDP(f.env, 6, gtp.VoiceQoS(), "",
		func(_ netip.Addr, k bool) { rok = k }); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	if !rok {
		t.Fatal("activation after recovery failed")
	}
}

// TestClientTimeoutsFireOnDeadNetwork covers the client's transaction
// expiry: with the Um link down, attach and activation callbacks must fire
// with failure after Timeout instead of hanging forever.
func TestClientTimeoutsFireOnDeadNetwork(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.ms.Client.Timeout = 2 * time.Second
	f.ms.Client.Retries = -1 // single-attempt expiry; retransmission has its own tests

	um := f.env.LinkBetween("MS-1", "BTS-1")
	um.Down = true

	var attachDone, attachOK bool
	if err := f.ms.Client.Attach(f.env, func(ok bool) { attachDone, attachOK = true, ok }); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 5*time.Second)
	if !attachDone || attachOK {
		t.Fatalf("attach on a dead link: done=%v ok=%v", attachDone, attachOK)
	}

	// Recover, attach for real, then kill the link again for activation.
	um.Down = false
	f.attach(t)
	um.Down = true
	var actDone, actOK bool
	if err := f.ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(_ netip.Addr, ok bool) { actDone, actOK = true, ok }); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 5*time.Second)
	if !actDone || actOK {
		t.Fatalf("activation on a dead link: done=%v ok=%v", actDone, actOK)
	}
	// The expired NSAPI must be reusable.
	um.Down = false
	f.activate(t, 5, gtp.SignallingQoS(), "")
}

// TestClientDuplicateTransactionsRejected covers the guard clauses for
// overlapping transactions.
func TestClientDuplicateTransactionsRejected(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	c := f.ms.Client
	if err := c.Attach(f.env, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(f.env, func(bool) {}); err == nil {
		t.Fatal("overlapping attach accepted")
	}
	f.env.Run()
	if err := c.Attach(f.env, func(bool) {}); err == nil {
		t.Fatal("attach while attached accepted")
	}
	if err := c.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "", func(netip.Addr, bool) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "", func(netip.Addr, bool) {}); err == nil {
		t.Fatal("overlapping activation accepted")
	}
	f.env.Run()
	if err := c.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "", func(netip.Addr, bool) {}); err == nil {
		t.Fatal("activation of an active NSAPI accepted")
	}
}

// TestGGSNAddressOf covers the tunnel-address accessor.
func TestGGSNAddressOf(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})
	f.attach(t)
	addr := f.activate(t, 5, gtp.SignallingQoS(), "")
	tid := gtp.MakeTID(testIMSI, 5)
	got, ok := f.ggsn.AddressOf(tid)
	if !ok || got != addr {
		t.Fatalf("AddressOf(%v) = %v,%v want %v", tid, got, ok, addr)
	}
	if _, ok := f.ggsn.AddressOf(gtp.MakeTID(testIMSI, 9)); ok {
		t.Fatal("AddressOf for an unknown TID reported ok")
	}
}

// TestGGSNPoolExhaustionRejectsActivation drains the GGSN's dynamic
// address pool (254 addresses, one per subscriber — the TID's 4-bit NSAPI
// field means scale comes from subscribers, as in a real GGSN) and
// verifies the 255th activation is rejected end to end, then that one
// deactivation frees an address for the next subscriber.
func TestGGSNPoolExhaustionRejectsActivation(t *testing.T) {
	f := newCoreFixture(t, GGSNConfig{}, SGSNConfig{})

	newSub := func(i int) *MS {
		imsi := gsmid.IMSI(fmt.Sprintf("4669201%08d", i))
		if err := f.hlr.Provision(hlr.Subscriber{
			IMSI: imsi, MSISDN: gsmid.MSISDN(fmt.Sprintf("88691%07d", i)),
		}); err != nil {
			t.Fatal(err)
		}
		ms := NewMS(MSConfig{ID: sim.NodeID(fmt.Sprintf("MS-P%d", i)), IMSI: imsi, BTS: "BTS-1"})
		f.env.AddNode(ms)
		f.env.Connect(ms.ID(), "BTS-1", "Um", time.Millisecond)
		return ms
	}
	attachAndActivate := func(ms *MS) bool {
		attached := false
		if err := ms.Client.Attach(f.env, func(ok bool) { attached = ok }); err != nil {
			t.Fatal(err)
		}
		f.env.Run()
		if !attached {
			t.Fatalf("%s attach failed", ms.Client.IMSI)
		}
		var done, ok bool
		if err := ms.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
			func(_ netip.Addr, k bool) { done, ok = true, k }); err != nil {
			t.Fatal(err)
		}
		f.env.Run()
		if !done {
			t.Fatalf("%s activation never resolved", ms.Client.IMSI)
		}
		return ok
	}

	subs := make([]*MS, 0, 254)
	for i := 0; i < 254; i++ {
		ms := newSub(i)
		subs = append(subs, ms)
		if !attachAndActivate(ms) {
			t.Fatalf("subscriber %d rejected before exhaustion", i)
		}
	}
	if f.ggsn.ActiveContexts() != 254 {
		t.Fatalf("GGSN contexts = %d", f.ggsn.ActiveContexts())
	}

	// The 255th dynamic allocation must fail cleanly.
	extra := newSub(254)
	if attachAndActivate(extra) {
		t.Fatal("activation past pool exhaustion succeeded")
	}

	// One deactivation frees an address; the extra subscriber retries OK.
	deactivated := false
	if err := subs[0].Client.DeactivatePDP(f.env, 5, func() { deactivated = true }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !deactivated {
		t.Fatal("deactivation never confirmed")
	}
	var ok bool
	if err := extra.Client.ActivatePDP(f.env, 5, gtp.SignallingQoS(), "",
		func(_ netip.Addr, k bool) { ok = k }); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if !ok {
		t.Fatal("retry after a freed address failed")
	}
}
