package netsim

import (
	"strings"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/sim"
)

// lastDelivery is a tracer that remembers when the latest message arrived.
type lastDelivery struct{ at time.Duration }

func (l *lastDelivery) Trace(at time.Duration, _, _ sim.NodeID, iface string, _ sim.Message) {
	if !strings.HasPrefix(iface, "drop:") {
		l.at = at
	}
}

// TestRegistrationQuiescesAtLastDelivery runs a lossless registration, call
// set-up and release to quiescence: every transaction was answered, so every
// retransmission and paging timer was cancelled, and Run returns the instant
// of the last delivery with nothing queued — not one RTO later.
func TestRegistrationQuiescesAtLastDelivery(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, NumMS: 2})
	last := &lastDelivery{}
	n.Env.SetTracer(last)
	quiesce := func(step string) {
		t.Helper()
		end := n.Env.Run()
		if end != last.at || n.Env.Pending() != 0 {
			t.Fatalf("%s: Run returned %v with %d events queued, last delivery at %v",
				step, end, n.Env.Pending(), last.at)
		}
	}

	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	quiesce("registration")
	for i, ms := range n.MSs {
		if ms.State() != gsm.MSIdle {
			t.Fatalf("MS %d state %v after registration", i, ms.State())
		}
	}

	// MS-to-MS, so the terminating side pages: the paging timer is one of
	// the timers that must not outlive the call set-up.
	if err := n.MSs[0].Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	quiesce("call set-up")
	if n.MSs[0].State() != gsm.MSInCall || n.MSs[1].State() != gsm.MSInCall {
		t.Fatalf("states %v/%v after set-up", n.MSs[0].State(), n.MSs[1].State())
	}
	if err := n.MSs[0].Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	quiesce("release")
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("residual after release:\n%s", res.String())
	}
}
