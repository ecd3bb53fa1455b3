package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
)

// TestMediaSurvivesPacketLoss injects loss on the Gn tunnel link and checks
// that the call survives and the RTP receiver measures the loss. Media
// frames are deliberately unprotected — only the signalling planes
// retransmit (see chaos_test.go for loss on those).
func TestMediaSurvivesPacketLoss(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 3, Talk: true})
	ms := establishedCall(t, n)

	// 10% loss on the uplink tunnel leg once the call is stable.
	n.Env.LinkBetween("SGSN-1", "GGSN-1").Loss = 0.10
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)

	term := n.Terminals[0]
	if term.Media.Received() == 0 {
		t.Fatal("no media at all under loss")
	}
	lost := term.Media.Lost()
	expected := term.Media.ExpectedFrom()
	if lost == 0 {
		t.Fatal("receiver measured no loss on a 10%-lossy path")
	}
	ratio := float64(lost) / float64(expected)
	if ratio < 0.03 || ratio > 0.25 {
		t.Fatalf("loss ratio = %.3f (lost %d of %d), want near 0.10", ratio, lost, expected)
	}
	// The call is still up and clearable. Clearing crosses this link and
	// the H.225 release collapses into a single unacknowledged
	// ReleaseComplete — the one signalling message with no
	// retransmission timer — so heal the link first; chaos_test.go
	// covers the planes that do retransmit.
	n.Env.LinkBetween("SGSN-1", "GGSN-1").Loss = 0
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSIdle || n.VMSC.ActiveCalls() != 0 {
		t.Fatalf("clearing failed: %v / %d", ms.State(), n.VMSC.ActiveCalls())
	}
}
