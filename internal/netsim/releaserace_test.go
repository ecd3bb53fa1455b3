package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
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
	if active, calls, _ := n.GK.Calls(); active != 0 || calls != 0 {
		t.Errorf("gatekeeper: %d calls active, %d disengaged, want none", active, calls)
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

// stepSeen records when a node sends a message of one kind.
type stepSeen struct {
	from sim.NodeID
	is   func(sim.Message) bool
	seen bool
}

func (s *stepSeen) Trace(_ time.Duration, from, _ sim.NodeID, _ string, msg sim.Message) {
	s.seen = s.seen || (from == s.from && s.is(msg))
}

// TestCancelBetweenAttachAndRCF cancels a subscriber whose registration has
// passed the GPRS attach but not yet heard the gatekeeper's RCF (Fig 4
// between steps 1.3 and 1.5): once while the signalling PDP context comes up,
// once while the RRQ is out. With 20 ms LAN links the HLR's cancel, relayed
// by the VLR, reaches the VMSC before the step in flight completes, so its
// completion finds a row being purged. The chain must unwind instead of going
// on: the alias comes off the gatekeeper if the RCF put it there, the GPRS
// attachment and its signalling context go, the MS hears a reject, and the
// row is freed.
func TestCancelBetweenAttachAndRCF(t *testing.T) {
	for _, tc := range []struct {
		step string
		is   func(sim.Message) bool
		urq  bool
	}{
		{"pdp-activation", func(m sim.Message) bool { _, ok := m.(gprs.ActivatePDPRequest); return ok }, false},
		{"gatekeeper-registration", func(m sim.Message) bool { _, ok := m.(h323.RRQ); return ok }, true},
	} {
		t.Run(tc.step, func(t *testing.T) {
			lat := DefaultLatencies()
			lat.LAN = 20 * time.Millisecond
			n := BuildVGPRS(VGPRSOptions{Seed: 1, Latencies: &lat})
			n.Terminals[0].Register(n.Env)
			n.Env.Run()
			tr := &stepSeen{from: n.VMSC.ID(), is: tc.is}
			n.Env.SetTracer(tr)
			n.MSs[0].PowerOn(n.Env)
			for !tr.seen && n.Env.Step() {
			}
			if !tr.seen {
				t.Fatalf("the registration never reached %s", tc.step)
			}
			n.Env.SetTracer(n.Rec)
			n.Rec.Reset()
			n.Env.Send("HLR", "VLR-1", sigmap.CancelLocation{Invoke: 99, IMSI: n.Subscribers[0].IMSI})
			n.Env.Run()

			cancel, _ := n.Rec.First(trace.Step{Msg: "MAP_CANCEL_LOCATION", To: "VMSC-1"})
			rcf, rcfSent := n.Rec.First(trace.Step{Msg: "RAS RCF", To: "VMSC-1"})
			if rcfSent != tc.urq || (rcfSent && rcf.At <= cancel.At) {
				t.Fatalf("RCF sent %v (at %v, want %v and after the cancel at %v)", rcfSent, rcf.At, tc.urq, cancel.At)
			}
			if _, urq := n.Rec.First(trace.Step{Msg: "RAS URQ", From: "VMSC-1"}); urq != tc.urq {
				t.Errorf("URQ sent %v, want %v", urq, tc.urq)
			}
			if got := n.VMSC.MSTable(); got != 0 {
				t.Errorf("VMSC holds %d rows, want 0", got)
			}
			if got := n.GK.Registered(); got != 1 {
				t.Errorf("gatekeeper holds %d registrations, want the terminal's alone", got)
			}
			if got := n.SGSN.Attached(); got != 0 {
				t.Errorf("SGSN holds %d attached subscribers, want 0", got)
			}
			if got := n.GGSN.ActiveContexts(); got != 0 {
				t.Errorf("GGSN holds %d PDP contexts, want 0", got)
			}
			if got := n.MSs[0].State(); got != gsm.MSDetached {
				t.Errorf("MS state = %v, want detached (registration refused)", got)
			}
			if res := n.Residual(); res.Total() != 0 {
				t.Fatalf("cancel mid-registration leaked state:\n%s", res.String())
			}
		})
	}
}
