package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// TestCallerAbandonDuringPagingReleasesOnce pins the double-release race
// the day-in-the-life soak exposed: the caller abandons while the callee is
// still being paged, so the far-end ReleaseComplete and the paging timer
// both reach the MT call. The second path must be a no-op — before the
// guard on a released call, the VMSC double-booked the release and its
// active-call count went negative.
func TestCallerAbandonDuringPagingReleasesOnce(t *testing.T) {
	// One traffic channel: the caller holds it, so the callee can never
	// answer the page and the MT leg is pinned in paging until the caller
	// gives up.
	n := BuildVGPRS(VGPRSOptions{Seed: 9, NumMS: 2, TCHCapacity: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	caller, callee := n.MSs[0], n.MSs[1]
	if err := caller.Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	// Both legs live on the one VMSC: step until the MT leg exists (the
	// setup increments the active count before paging starts).
	deadline := n.Env.Now() + 10*time.Second
	for n.VMSC.ActiveCalls() < 2 && n.Env.Now() < deadline {
		if !n.Env.Step() {
			break
		}
	}
	if got := n.VMSC.ActiveCalls(); got != 2 {
		t.Fatalf("MT leg never materialised: %d active calls", got)
	}
	released := n.VMSC.Stats().CallsReleased

	// The caller abandons mid-page; its ReleaseComplete tears down the MT
	// leg first. Then run well past the 5 s paging timeout so the timer
	// fires against the already-released call.
	if err := caller.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)

	if got := n.VMSC.ActiveCalls(); got != 0 {
		t.Fatalf("active calls after abandon+timeout = %d, want 0", got)
	}
	if got := n.VMSC.Stats().CallsReleased - released; got != 2 {
		t.Fatalf("CallsReleased delta = %d, want 2 (one per leg, no double-booking)", got)
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("abandoned call leaked state:\n%s", res.String())
	}

	// The channel and subscriber records must be reusable: the reverse
	// call must page the abandoned party again (a stale entry.call would
	// bounce it with UserBusy instead) and tear down just as cleanly when
	// its paging times out against the single busy channel.
	if err := callee.Dial(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	deadline = n.Env.Now() + 10*time.Second
	for n.VMSC.ActiveCalls() < 2 && n.Env.Now() < deadline {
		if !n.Env.Step() {
			break
		}
	}
	if got := n.VMSC.ActiveCalls(); got != 2 {
		t.Fatalf("reverse call after abandon never reached paging: %d active calls", got)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if got := n.VMSC.ActiveCalls(); got != 0 {
		t.Fatalf("active calls after reverse-call timeout = %d, want 0", got)
	}
	if got := n.VMSC.Stats().CallsReleased - released; got != 4 {
		t.Fatalf("CallsReleased delta = %d, want 4 (two legs per attempt)", got)
	}
	if caller.State() != gsm.MSIdle || callee.State() != gsm.MSIdle {
		t.Fatalf("population not idle after drains: caller %v, callee %v",
			caller.State(), callee.State())
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("reverse call leaked state:\n%s", res.String())
	}
}

// sifocSeen records when the VLR receives MAP_SEND_INFO_FOR_OUTGOING_CALL.
type sifocSeen struct {
	vlr  sim.NodeID
	seen bool
}

func (s *sifocSeen) Trace(_ time.Duration, _, to sim.NodeID, _ string, msg sim.Message) {
	if _, ok := msg.(sigmap.SendInfoForOutgoingCall); ok && to == s.vlr {
		s.seen = true
	}
}

// TestHangupDuringSIFOC hangs the caller up while the VMSC waits for the
// VLR to authorise the call (Fig 5 step 2.2). With 20 ms MAP links the
// Disconnect reaches the VMSC before the VLR's answer does, so the call is
// released first; the answer must then end the procedure, not go on to ask
// the gatekeeper to admit a call nobody will ever disengage.
func TestHangupDuringSIFOC(t *testing.T) {
	lat := DefaultLatencies()
	lat.SS7 = 20 * time.Millisecond
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Latencies: &lat})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	tr := &sifocSeen{vlr: n.VLR.ID()}
	n.Env.SetTracer(tr)
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	for !tr.seen && n.Env.Step() {
	}
	if !tr.seen {
		t.Fatal("the call never asked the VLR for authorisation")
	}
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	if admitted, rejected := n.GK.Admissions(); admitted != 0 || rejected != 0 {
		t.Errorf("gatekeeper admissions = %d admitted, %d rejected, want none", admitted, rejected)
	}
	if recs := n.GK.CallRecords(); len(recs) != 0 {
		t.Errorf("gatekeeper holds %d call records, want 0: %+v", len(recs), recs)
	}
	if got := n.VMSC.ActiveCalls(); got != 0 {
		t.Errorf("VMSC active calls = %d, want 0", got)
	}
	if ms.State() != gsm.MSIdle {
		t.Errorf("MS state = %v, want idle", ms.State())
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("hang-up during SIFOC leaked state:\n%s", res.String())
	}
}
