package pstn

import (
	"testing"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/isup"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// buildTwoExchanges wires PhoneA - LE1 =(trunks)= LE2 - PhoneB.
func buildTwoExchanges(t *testing.T, trunkSize int) (*sim.Env, *Phone, *Phone, *isup.TrunkGroup) {
	t.Helper()
	env := sim.NewEnv(1)
	trunks := isup.NewTrunkGroup("LE1<->LE2", isup.TrunkNational, trunkSize)

	le1 := NewExchange(ExchangeConfig{ID: "LE1", Routes: []Route{
		{Prefix: "8862", Next: "LE2", Trunks: trunks},
		{Prefix: "8861", Next: "PHONE-A"},
	}})
	le2 := NewExchange(ExchangeConfig{ID: "LE2", Routes: []Route{
		{Prefix: "8862", Next: "PHONE-B"},
		{Prefix: "8861", Next: "LE1", Trunks: trunks},
	}})
	a := NewPhone(PhoneConfig{ID: "PHONE-A", Number: "88611110001", Exchange: "LE1", Talk: true})
	b := NewPhone(PhoneConfig{ID: "PHONE-B", Number: "88622220001", Exchange: "LE2",
		AutoAnswer: true, AnswerDelay: 50 * time.Millisecond, Talk: true})

	for _, n := range []sim.Node{le1, le2, a, b} {
		env.AddNode(n)
	}
	env.Connect("PHONE-A", "LE1", "Line", time.Millisecond)
	env.Connect("PHONE-B", "LE2", "Line", time.Millisecond)
	env.Connect("LE1", "LE2", "ISUP", 2*time.Millisecond)
	return env, a, b, trunks
}

func TestBasicCallThroughTwoExchanges(t *testing.T) {
	env, a, b, trunks := buildTwoExchanges(t, 4)
	var events []string
	a.cfg.Hooks.OnAlerting = func(uint32) { events = append(events, "alerting") }
	a.cfg.Hooks.OnConnected = func(uint32) { events = append(events, "connected") }

	if _, err := a.Call(env, "88622220001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)

	if len(events) != 2 || events[0] != "alerting" || events[1] != "connected" {
		t.Fatalf("events = %v", events)
	}
	if !a.InCall() || !b.InCall() {
		t.Fatal("call not established on both ends")
	}
	if trunks.InUse() != 1 {
		t.Fatalf("trunks in use = %d", trunks.InUse())
	}
	// Voice flows both directions across the trunk.
	if a.FramesReceived() == 0 || b.FramesReceived() == 0 {
		t.Fatalf("frames a=%d b=%d", a.FramesReceived(), b.FramesReceived())
	}

	released := false
	b.cfg.Hooks.OnReleased = func(uint32, isup.ReleaseCause) { released = true }
	if err := a.Hangup(env); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)
	if !released || b.InCall() {
		t.Fatal("far end not released")
	}
	if trunks.InUse() != 0 {
		t.Fatalf("trunk leaked: in use = %d", trunks.InUse())
	}
}

func TestCalleeBusy(t *testing.T) {
	env, a, b, _ := buildTwoExchanges(t, 4)
	var cause isup.ReleaseCause
	a.cfg.Hooks.OnReleased = func(_ uint32, c isup.ReleaseCause) { cause = c }
	// Occupy B with another call first.
	b.active = true
	if _, err := a.Call(env, "88622220001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)
	if cause != isup.CauseUserBusy {
		t.Fatalf("cause = %v, want user-busy", cause)
	}
	if a.InCall() {
		t.Fatal("caller still in call")
	}
}

func TestUnroutableNumberReleased(t *testing.T) {
	env, a, _, _ := buildTwoExchanges(t, 4)
	var cause isup.ReleaseCause
	a.cfg.Hooks.OnReleased = func(_ uint32, c isup.ReleaseCause) { cause = c }
	if _, err := a.Call(env, "99900001111"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)
	if cause != isup.CauseUnallocatedNumber {
		t.Fatalf("cause = %v", cause)
	}
}

func TestTrunkExhaustionFailsCall(t *testing.T) {
	env, a, _, trunks := buildTwoExchanges(t, 1)
	// Seize the only trunk out-of-band.
	if _, err := trunks.Seize(); err != nil {
		t.Fatal(err)
	}
	var cause isup.ReleaseCause
	released := false
	a.cfg.Hooks.OnReleased = func(_ uint32, c isup.ReleaseCause) { released, cause = true, c }
	if _, err := a.Call(env, "88622220001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)
	if !released || cause != isup.CauseUnallocatedNumber {
		t.Fatalf("released=%v cause=%v", released, cause)
	}
}

// refusingGateway releases every IAM with unallocated-number — the VoIP
// gateway whose gatekeeper lookup missed (Fig 8 fallback arm).
type refusingGateway struct {
	id   sim.NodeID
	iams int
}

func (g *refusingGateway) ID() sim.NodeID { return g.id }

func (g *refusingGateway) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case isup.IAM:
		g.iams++
		env.Send(g.id, from, isup.REL{CIC: m.CIC, CallRef: m.CallRef, Cause: isup.CauseUnallocatedNumber})
	case isup.RLC:
	}
}

func TestFallbackRouteAfterRefusal(t *testing.T) {
	env := sim.NewEnv(1)
	gwTrunks := isup.NewTrunkGroup("LE->GW", isup.TrunkLocal, 2)
	intlTrunks := isup.NewTrunkGroup("LE->INTL", isup.TrunkInternational, 2)

	le := NewExchange(ExchangeConfig{ID: "LE", Routes: []Route{
		{Prefix: "044", Next: "GW", Trunks: gwTrunks},        // VoIP first
		{Prefix: "044", Next: "PHONE-B", Trunks: intlTrunks}, // PSTN fallback
	}})
	gw := &refusingGateway{id: "GW"}
	a := NewPhone(PhoneConfig{ID: "PHONE-A", Number: "85211110001", Exchange: "LE"})
	b := NewPhone(PhoneConfig{ID: "PHONE-B", Number: "04412340001", Exchange: "LE",
		AutoAnswer: true})

	for _, n := range []sim.Node{le, gw, a, b} {
		env.AddNode(n)
	}
	env.Connect("PHONE-A", "LE", "Line", time.Millisecond)
	env.Connect("PHONE-B", "LE", "Line", time.Millisecond)
	env.Connect("LE", "GW", "ISUP", time.Millisecond)

	connected := false
	a.cfg.Hooks.OnConnected = func(uint32) { connected = true }
	if _, err := a.Call(env, "04412340001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)

	if gw.iams != 1 {
		t.Fatalf("gateway IAMs = %d", gw.iams)
	}
	if !connected {
		t.Fatal("fallback route did not complete the call")
	}
	// The refused VoIP trunk was released; the fallback trunk is held.
	if gwTrunks.InUse() != 0 || intlTrunks.InUse() != 1 {
		t.Fatalf("trunks gw=%d intl=%d", gwTrunks.InUse(), intlTrunks.InUse())
	}
	// Seizure accounting for the cost table.
	if gwTrunks.TotalSeizures() != 1 || intlTrunks.TotalSeizures() != 1 {
		t.Fatalf("seizures gw=%d intl=%d", gwTrunks.TotalSeizures(), intlTrunks.TotalSeizures())
	}
}

// stubHLR answers SRI with a fixed MSRN.
type stubHLR struct {
	id   sim.NodeID
	msrn gsmid.MSISDN
	sris int
}

func (h *stubHLR) ID() sim.NodeID { return h.id }

func (h *stubHLR) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	if m, ok := msg.(sigmap.SendRoutingInformation); ok {
		h.sris++
		env.Send(h.id, from, sigmap.SendRoutingInformationAck{
			Invoke: m.Invoke, Cause: sigmap.CauseNone, MSRN: h.msrn,
		})
	}
}

func TestGMSCInterrogatesHLRAndRoutesToMSRN(t *testing.T) {
	env := sim.NewEnv(1)
	trunks := isup.NewTrunkGroup("GMSC->MSC", isup.TrunkInternational, 2)
	hlrNode := &stubHLR{id: "HLR", msrn: "85290001234"}

	gmsc := NewExchange(ExchangeConfig{
		ID:             "GMSC",
		HLR:            "HLR",
		MobilePrefixes: []string{"0447"},
		Routes: []Route{
			{Prefix: "85290", Next: "PHONE-B", Trunks: trunks},
		},
	})
	a := NewPhone(PhoneConfig{ID: "PHONE-A", Number: "04411110001", Exchange: "GMSC"})
	// PHONE-B stands in for the serving MSC answering at the MSRN.
	b := NewPhone(PhoneConfig{ID: "PHONE-B", Number: "85290001234", Exchange: "GMSC", AutoAnswer: true})

	for _, n := range []sim.Node{gmsc, hlrNode, a, b} {
		env.AddNode(n)
	}
	env.Connect("PHONE-A", "GMSC", "Line", time.Millisecond)
	env.Connect("PHONE-B", "GMSC", "Line", time.Millisecond)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)

	connected := false
	a.cfg.Hooks.OnConnected = func(uint32) { connected = true }
	if _, err := a.Call(env, "04477770001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)

	if hlrNode.sris != 1 {
		t.Fatalf("SRI count = %d", hlrNode.sris)
	}
	if !connected {
		t.Fatal("call to MSRN did not complete")
	}
}

func TestGMSCUnknownMobileReleased(t *testing.T) {
	env := sim.NewEnv(1)
	hlrNode := &failingHLR{id: "HLR"}
	gmsc := NewExchange(ExchangeConfig{
		ID: "GMSC", HLR: "HLR", MobilePrefixes: []string{"0447"},
	})
	a := NewPhone(PhoneConfig{ID: "PHONE-A", Number: "04411110001", Exchange: "GMSC"})
	for _, n := range []sim.Node{gmsc, hlrNode, a} {
		env.AddNode(n)
	}
	env.Connect("PHONE-A", "GMSC", "Line", time.Millisecond)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)

	var cause isup.ReleaseCause
	a.cfg.Hooks.OnReleased = func(_ uint32, c isup.ReleaseCause) { cause = c }
	if _, err := a.Call(env, "04477770001"); err != nil {
		t.Fatal(err)
	}
	env.RunUntil(env.Now() + time.Second)
	if cause != isup.CauseUnallocatedNumber {
		t.Fatalf("cause = %v", cause)
	}
	gmsc.Audit(func(kind string, n int) {
		if n != 0 {
			t.Fatalf("%s = %d: call state leaked", kind, n)
		}
	})
}

func TestPhoneGuards(t *testing.T) {
	env, a, _, _ := buildTwoExchanges(t, 1)
	if err := a.Hangup(env); err == nil {
		t.Fatal("hangup without call accepted")
	}
	if _, err := a.Call(env, "88622220001"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(env, "88622220001"); err == nil {
		t.Fatal("second concurrent call accepted")
	}
}

type failingHLR struct{ id sim.NodeID }

func (h *failingHLR) ID() sim.NodeID { return h.id }

func (h *failingHLR) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	if m, ok := msg.(sigmap.SendRoutingInformation); ok {
		env.Send(h.id, from, sigmap.SendRoutingInformationAck{
			Invoke: m.Invoke, Cause: sigmap.CauseUnknownSubscriber,
		})
	}
}
