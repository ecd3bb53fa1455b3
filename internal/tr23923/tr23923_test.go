package tr23923_test

import (
	"testing"
	"time"

	"vgprs/internal/h323"
	"vgprs/internal/netsim"
	"vgprs/internal/sigmap"
	"vgprs/internal/trace"
)

func TestRegistrationDeactivatesContext(t *testing.T) {
	n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// The defining TR 23.923 behaviour: registered in the GK table but no
	// PDP context held while idle.
	if n.GK.Registered() != 2 { // MS + terminal
		t.Fatalf("GK registrations = %d", n.GK.Registered())
	}
	if n.SGSN.ActiveContexts() != 0 {
		t.Fatalf("idle contexts = %d, want 0", n.SGSN.ActiveContexts())
	}
	// The gatekeeper learned the IMSI from the HLR — the §6
	// confidentiality problem.
	ack, ok := n.Rec.FirstMatch(trace.ExpectStep{Msg: "MAP_SEND_IMSI_ack", To: "GK"})
	if !ok || ack.Msg.(sigmap.SendIMSIAck).IMSI != n.Subscribers[0].IMSI {
		t.Fatalf("the GK learned no IMSI from the HLR (ack %v)", ok)
	}
	// ... and memorized it.
	if n.GK.KnownIMSIs() != 1 {
		t.Fatalf("GK known IMSIs = %d, want 1", n.GK.KnownIMSIs())
	}
	if r := n.Residual(); r.Total() != 0 {
		t.Fatalf("residual after registration:\n%s", r.String())
	}
}

func TestKeepActiveAblation(t *testing.T) {
	n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 1, KeepPDPActive: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("contexts = %d, want 1 (kept active)", n.SGSN.ActiveContexts())
	}
}

func TestMOCallReactivatesContext(t *testing.T) {
	n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 1, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]

	ref, err := ms.Call(n.Env, netsim.TerminalAlias(0))
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if st, _ := ms.Term.CallState(ref); st != h323.CallConnected {
		t.Fatalf("call state = %v", st)
	}
	// During the call exactly one context is active.
	if n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("contexts during call = %d", n.SGSN.ActiveContexts())
	}
	// The per-call activation appears in the trace BEFORE the ARQ hits
	// the gatekeeper (the §6 setup-latency cost).
	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		{Msg: "Activate PDP Context Request"},
		{Msg: "GTP Create PDP Context Request"},
		{Msg: "RAS ARQ", To: "GK"},
		{Msg: "Q.931 Connect"},
	}); err != nil {
		t.Fatal(err)
	}
	// Media flows (PS radio path).
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.Terminal.Media.Received() == 0 || ms.Term.Media.Received() == 0 {
		t.Fatalf("media term=%d ms=%d", n.Terminal.Media.Received(), ms.Term.Media.Received())
	}

	if err := ms.Hangup(n.Env, ref); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	// The context is deactivated again after the call.
	if n.SGSN.ActiveContexts() != 0 {
		t.Fatalf("contexts after call = %d", n.SGSN.ActiveContexts())
	}
	if r := n.Residual(); r.Total() != 0 {
		t.Fatalf("residual after hang-up:\n%s", r.String())
	}
}

func TestMTCallNeedsNetworkInitiatedActivation(t *testing.T) {
	n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 1, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	term := n.Terminal

	ref, err := term.Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	if st, _ := term.CallState(ref); st != h323.CallConnected {
		t.Fatalf("terminal call state = %v", st)
	}
	// The MT path crossed the network-initiated activation machinery.
	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		{Msg: "Q.931 Setup", From: "TERM-1"},
		{Msg: "MAP_SEND_ROUTING_INFO_FOR_GPRS", From: "GGSN-1", To: "HLR"},
		{Msg: "GTP PDU Notification Request", From: "GGSN-1", To: "SGSN-1"},
		{Msg: "Request PDP Context Activation", From: "SGSN-1"},
		{Msg: "Activate PDP Context Request"},
		{Msg: "Q.931 Connect"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPSJitterDegradesMedia(t *testing.T) {
	run := func(jitter time.Duration) time.Duration {
		n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 7, Talk: true, PSJitter: jitter, KeepPDPActive: true})
		if err := n.RegisterAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := n.MSs[0].Call(n.Env, netsim.TerminalAlias(0)); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		if n.Terminal.Media.Received() == 0 {
			t.Fatal("no media")
		}
		return n.Terminal.Media.Jitter()
	}
	smooth := run(0)
	rough := run(30 * time.Millisecond)
	if rough <= smooth {
		t.Fatalf("PS jitter %v <= smooth %v; contention model broken", rough, smooth)
	}
}

func TestTransportDropsWhenContextDown(t *testing.T) {
	n := netsim.BuildTR23923(netsim.TR23923Options{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// Idle: context down. A stray send through the terminal's transport
	// (simulated by a direct RAS registration) is dropped at the MS.
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if n.SGSN.ActiveContexts() != 0 {
		t.Fatalf("contexts = %d", n.SGSN.ActiveContexts())
	}
	k := n.Rec.Len()
	n.MSs[0].Term.Register(n.Env) // RRQ with no context and no activation in flight
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	// The terminal sends its RRQ (the logical RAS arrow), and nothing of it
	// reaches the radio, Gb, Gn or IP planes.
	sent := false
	for _, e := range n.Rec.Entries()[k:] {
		if e.Iface != "RAS" {
			t.Fatalf("%v: traffic without a PDP context", e)
		}
		sent = sent || e.Msg.Name() == "RAS RRQ"
	}
	if !sent {
		t.Fatal("the terminal sent no RRQ")
	}
}
