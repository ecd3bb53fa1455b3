package netsim

import (
	"testing"
	"time"

	"vgprs/internal/h323"
)

// TestHangupDuringVoicePDPActivation: the MS hangs up while the VMSC is still
// bringing up the call's voice PDP context (Fig 5 step 2.9), because the
// first Create PDP Context Request was lost on Gn and has to be re-sent. The
// activation completes after the call was released; it must give the context
// back rather than bring the dead call back as established.
func TestHangupDuringVoicePDPActivation(t *testing.T) {
	var n *VGPRSNet
	n = BuildVGPRS(VGPRSOptions{Seed: 1, TerminalMutate: func(c *h323.TerminalConfig) {
		// The terminal answers: cut SGSN->GGSN for 8 ms, which loses the
		// Create the VMSC's voice activation sends next.
		c.Hooks.OnConnected = func(uint16) {
			gn := n.Env.LinkBetween("SGSN-1", "GGSN-1")
			gn.Down = true
			n.Env.After(8*time.Millisecond, func() { gn.Down = false })
		}
	}})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	ms.SetOnConnected(func(uint32) {
		if err := ms.Hangup(n.Env); err != nil {
			t.Error(err)
		}
	})
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)

	st := n.VMSC.Stats()
	if st.CallsReleased != 1 || st.CallsEstablished != 0 {
		t.Errorf("calls released %d, established %d: want 1, 0", st.CallsReleased, st.CallsEstablished)
	}
	if got := n.GGSN.ActiveContexts(); got != 1 {
		t.Errorf("GGSN holds %d contexts, want the signalling one", got)
	}
	if got := n.SGSN.ActiveContexts(); got != 1 {
		t.Errorf("SGSN holds %d contexts, want the signalling one", got)
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Errorf("residual:\n%s", res.String())
	}
}
