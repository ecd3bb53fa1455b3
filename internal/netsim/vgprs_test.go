package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/h323"
)

func TestBuildAndRegister(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, NumMS: 2, NumTerminals: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// Every MS has a complete MS-table entry with an IP address.
	for _, sub := range n.Subscribers {
		addr, registered, ok := n.VMSC.Entry(sub.IMSI)
		if !ok || !registered || !addr.IsValid() {
			t.Fatalf("entry for %s = addr %v registered %v ok %v", sub.IMSI, addr, registered, ok)
		}
		// The gatekeeper's address-translation table has the (IP
		// address, MSISDN) pair of paper step 1.5.
		reg, found := n.GK.Lookup(sub.MSISDN)
		if !found || reg.SignalAddr != addr {
			t.Fatalf("GK row for %s = %+v found %v", sub.MSISDN, reg, found)
		}
	}
	// The SGSN/GGSN hold one signalling context per MS.
	if got := n.SGSN.ActiveContexts(); got != 2 {
		t.Fatalf("SGSN contexts = %d", got)
	}
	if got := n.GGSN.ActiveContexts(); got != 2 {
		t.Fatalf("GGSN contexts = %d", got)
	}
}

// TestMOCallToTerminal checks what a Fig 5 call leaves behind: both PDP
// contexts and speech both ways while it lasts; after the MS hangs up, only
// the signalling context, and a gatekeeper that closed the call at the DRQ.
func TestMOCallToTerminal(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	ms, term := establishedCall(t, n), n.Terminals[0]
	if term.ActiveCalls() != 1 || n.SGSN.ActiveContexts() != 2 {
		t.Fatalf("terminal calls = %d, SGSN contexts = %d", term.ActiveCalls(), n.SGSN.ActiveContexts())
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() == 0 || ms.FramesReceived() == 0 {
		t.Fatalf("media term=%d ms=%d", term.Media.Received(), ms.FramesReceived())
	}
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if active, calls, _ := n.GK.Calls(); ms.State() != gsm.MSIdle || term.ActiveCalls() != 0 ||
		n.VMSC.ActiveCalls() != 0 || n.SGSN.ActiveContexts() != 1 || active != 0 || calls != 1 {
		t.Fatalf("after hang-up: MS %v, terminal calls %d, VMSC calls %d, SGSN contexts %d, GK %d active %d closed",
			ms.State(), term.ActiveCalls(), n.VMSC.ActiveCalls(), n.SGSN.ActiveContexts(), active, calls)
	}
}

// TestMTCallFromTerminal checks what a Fig 6 call leaves behind: speech both
// ways, and after the terminal hangs up, only the signalling context.
func TestMTCallFromTerminal(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	ms, term, ref := terminatedCall(t, n)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() == 0 || ms.FramesReceived() == 0 {
		t.Fatalf("media term=%d ms=%d", term.Media.Received(), ms.FramesReceived())
	}
	if err := term.Hangup(n.Env, ref); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if ms.State() != gsm.MSIdle || n.VMSC.ActiveCalls() != 0 || n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("after hang-up: MS %v, VMSC calls %d, SGSN contexts %d",
			ms.State(), n.VMSC.ActiveCalls(), n.SGSN.ActiveContexts())
	}
}

// TestFootprintFlatOverCalls: the resident tables follow the population, not
// the calls placed. A terminal calls MS-1 and hangs up K times, then 10·K
// more; every footprint in the leak gate must read exactly the same after
// both runs, and the network must drain. K covers the warm-up: a slab
// allocates its first chunk on first use.
func TestFootprintFlatOverCalls(t *testing.T) {
	const k = 100
	n := BuildVGPRS(VGPRSOptions{Seed: 1, NoTrace: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	term, ms := n.Terminals[0], n.Subscribers[0].MSISDN
	callsThenFootprints := func(calls int) map[string]int {
		for i := 0; i < calls; i++ {
			ref, err := term.Call(n.Env, ms)
			if err != nil {
				t.Fatal(err)
			}
			n.Env.Run()
			if st, _ := term.CallState(ref); st != h323.LegConnected {
				t.Fatalf("call %d: terminal state %v", i, st)
			}
			if err := term.Hangup(n.Env, ref); err != nil {
				t.Fatal(err)
			}
			n.Env.Run()
		}
		fp := map[string]int{}
		n.Footprints(func(node string, bytes int) { fp[node] = bytes })
		return fp
	}
	after := callsThenFootprints(k)
	if len(after) == 0 {
		t.Fatal("no element reports a footprint")
	}
	later := callsThenFootprints(10 * k)
	for node, bytes := range after {
		if later[node] != bytes {
			t.Errorf("%s footprint %d B after %d calls, %d B after %d", node, bytes, k, later[node], 11*k)
		}
	}
	if _, calls, _ := n.GK.Calls(); calls != 11*k {
		t.Errorf("gatekeeper disengaged %d calls, want %d", calls, 11*k)
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("residual after %d calls:\n%s", 11*k, res.String())
	}
}

func TestMSToMSCallThroughVMSC(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, NumMS: 2, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	caller, callee := n.MSs[0], n.MSs[1]
	if err := caller.Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if caller.State() != gsm.MSInCall || callee.State() != gsm.MSInCall {
		t.Fatalf("states = %v / %v", caller.State(), callee.State())
	}
	// Both legs carry speech (two back-to-back vocoder paths).
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if caller.FramesReceived() == 0 || callee.FramesReceived() == 0 {
		t.Fatalf("frames caller=%d callee=%d", caller.FramesReceived(), callee.FramesReceived())
	}
	// Four PDP contexts: signalling + voice per MS.
	if n.SGSN.ActiveContexts() != 4 {
		t.Fatalf("SGSN contexts = %d", n.SGSN.ActiveContexts())
	}
	if err := caller.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if callee.State() != gsm.MSIdle {
		t.Fatalf("callee state = %v", callee.State())
	}
	if n.SGSN.ActiveContexts() != 2 {
		t.Fatalf("SGSN contexts after = %d", n.SGSN.ActiveContexts())
	}
}

func TestDeactivateIdlePDPMode(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, DeactivateIdlePDP: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// Idle: no PDP contexts held (the §6 trade-off's resource side).
	if n.SGSN.ActiveContexts() != 0 {
		t.Fatalf("idle SGSN contexts = %d", n.SGSN.ActiveContexts())
	}

	ms := n.MSs[0]
	term := n.Terminals[0]

	// MO call still works: the signalling context is re-activated first.
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("MS state = %v", ms.State())
	}
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if n.SGSN.ActiveContexts() != 0 {
		t.Fatalf("contexts after MO call = %d", n.SGSN.ActiveContexts())
	}

	// MT call works via network-initiated activation.
	ref, err := term.Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	if st, _ := term.CallState(ref); st != h323.LegConnected {
		t.Fatalf("terminal state = %v", st)
	}
	if ms.State() != gsm.MSInCall {
		t.Fatalf("MS state = %v", ms.State())
	}
}
