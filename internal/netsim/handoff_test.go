package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vmsc"
)

// expectDrained fails t unless res is empty: a call that cleared left no
// transient record anywhere in the topology.
func expectDrained(t *testing.T, res Residual) {
	t.Helper()
	if res.Total() != 0 {
		t.Fatalf("residual after the call cleared:\n%s", res.String())
	}
}

// TestResidualSeesHandoverTargets holds a call on a handover target and reads
// the leak gate: the target switch — VMSC-2 after a VMSC-to-VMSC handoff,
// MSC-3 after a subsequent handover from MSC-2 — must show the handed-in
// leg, and the leg it left must be gone.
func TestResidualSeesHandoverTargets(t *testing.T) {
	targetLegs := func(res Residual) map[string]int {
		legs := map[string]int{}
		for _, it := range res.Items {
			if it.Kind == "handover-target legs" {
				legs[it.Node] += it.Count
			}
		}
		return legs
	}
	t.Run("vmsc", func(t *testing.T) {
		n := BuildHandoffVMSC(VGPRSOptions{Seed: 1})
		if !n.RunHandoff(establishedCall(t, n.VGPRSNet), 10*time.Second) {
			t.Fatal("handover did not complete")
		}
		res := n.Residual()
		if legs := targetLegs(res); len(legs) != 1 || legs["VMSC-2"] != 1 {
			t.Fatalf("mid-call target legs %v, want VMSC-2: 1; residual:\n%s", legs, res.String())
		}
	})
	t.Run("third-msc", func(t *testing.T) {
		n := BuildHandoff(VGPRSOptions{Seed: 1})
		ms := establishedCall(t, n.VGPRSNet)
		if !n.RunHandoff(ms, 10*time.Second) {
			t.Fatal("handover did not complete")
		}
		ms.ReportNeighbor(n.Env, n.ThirdCell)
		n.Env.RunUntil(n.Env.Now() + 2*time.Second)
		if n.MSC3.HandoversIn() != 1 {
			t.Fatalf("MSC-3 handovers in = %d", n.MSC3.HandoversIn())
		}
		res := n.Residual()
		if legs := targetLegs(res); len(legs) != 1 || legs["MSC-3"] != 1 {
			t.Fatalf("mid-call target legs %v, want MSC-3: 1; residual:\n%s", legs, res.String())
		}
	})
}

func TestInterSystemHandoff(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	term := n.Terminals[0]
	beforeRTP := term.Media.Received()

	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("handover did not complete")
	}
	// The E trunk is held: the VMSC stays anchored in the call path.
	if n.ETrunks.InUse() != 1 {
		t.Fatalf("E trunks in use = %d", n.ETrunks.InUse())
	}
	// The full Fig 9 message sequence appears in the trace.
	if _, err := n.Rec.ExpectFlow(Fig9Handoff("MSC-2")); err != nil {
		t.Fatal(err)
	}

	// Voice continuity: media keeps flowing after the handoff, now via
	// the trunk path H.323 <-> VMSC <-> MSC <-> MS (Fig 9(b)).
	msRxBefore := ms.FramesReceived()
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() <= beforeRTP {
		t.Fatal("uplink media stopped after handoff")
	}
	if ms.FramesReceived() <= msRxBefore {
		t.Fatal("downlink media stopped after handoff")
	}

	// The MS can hang up on the target system; everything clears.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.ETrunks.InUse() != 0 {
		t.Fatalf("E trunk leaked: %d", n.ETrunks.InUse())
	}
	if term.ActiveCalls() != 0 {
		t.Fatal("terminal call not cleared after post-handoff hangup")
	}
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatal("VMSC call state leaked")
	}
	expectDrained(t, n.Residual())
}

func TestHandoffTerminalHangsUpAfter(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 2, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	term := n.Terminals[0]
	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("handover did not complete")
	}
	// Terminal-side clearing reaches the MS through the trunk path.
	refs := term.CallRefs()
	if len(refs) != 1 {
		t.Fatalf("terminal call refs = %v", refs)
	}
	if err := term.Hangup(n.Env, refs[0]); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("MS state after far-end hangup = %v", ms.State())
	}
	if n.ETrunks.InUse() != 0 {
		t.Fatalf("E trunk leaked: %d", n.ETrunks.InUse())
	}
	expectDrained(t, n.Residual())
}

// TestVMSCToVMSCHandoff covers the paper's §7 remark: "inter-system handoff
// between two VMSCs follows the same procedure".
func TestVMSCToVMSCHandoff(t *testing.T) {
	n := BuildHandoffVMSC(VGPRSOptions{Seed: 5, Talk: true})
	ms, term := establishedCall(t, n.VGPRSNet), n.Terminals[0]
	rtpBefore := term.Media.Received()

	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("VMSC-to-VMSC handover did not complete")
	}
	if n.Target.HandoversIn() != 1 {
		t.Fatalf("target HandoversIn = %d", n.Target.HandoversIn())
	}
	if n.ETrunks.InUse() != 1 {
		t.Fatalf("E trunks in use = %d", n.ETrunks.InUse())
	}
	// The same MAP-E procedure ran, with VMSC-2 as target.
	if _, err := n.Rec.ExpectFlow(Fig9Handoff("VMSC-2")); err != nil {
		t.Fatal(err)
	}
	// Media continues both ways through the two-VMSC path.
	msRxBefore := ms.FramesReceived()
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() <= rtpBefore || ms.FramesReceived() <= msRxBefore {
		t.Fatal("media stopped after VMSC-to-VMSC handoff")
	}
	// Clearing from either side works; clear from the MS.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.ETrunks.InUse() != 0 || term.ActiveCalls() != 0 {
		t.Fatalf("post-clear trunks=%d terminal-calls=%d", n.ETrunks.InUse(), term.ActiveCalls())
	}
	expectDrained(t, n.Residual())
}

func TestHandoffToUnknownCellIgnored(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 3})
	ms := establishedCall(t, n.VGPRSNet)
	unknown := n.TargetCell
	unknown.CI = 0xFF
	ms.ReportNeighbor(n.Env, unknown)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.VMSC.Stats().Handovers != 0 {
		t.Fatal("handover to unknown cell executed")
	}
	if ms.State() != gsm.MSInCall {
		t.Fatalf("call dropped: %v", ms.State())
	}
}

// TestSubsequentHandback runs the GSM 03.09 subsequent handover back onto
// the anchor: MS hands off to the legacy MSC mid-call, then reports the
// VMSC's own cell. The relay asks the anchor over MAP E, the MS comes
// home, the E trunk is released, and media is bridged on the A interface
// again.
func TestSubsequentHandback(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	term := n.Terminals[0]

	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("first handover did not complete")
	}
	if n.ETrunks.InUse() != 1 {
		t.Fatalf("E trunks in use = %d after first handover", n.ETrunks.InUse())
	}

	// The MS reports the anchor's home cell from the legacy system.
	ms.ReportNeighbor(n.Env, n.HomeCell)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)

	if got := n.VMSC.Stats().Handovers; got != 2 {
		t.Fatalf("anchor handover count = %d, want 2 (out + back)", got)
	}
	if n.ETrunks.InUse() != 0 {
		t.Fatalf("E trunk not released after handback: %d in use", n.ETrunks.InUse())
	}
	if _, err := n.Rec.ExpectFlow(Handback("MSC-2")); err != nil {
		t.Fatal(err)
	}

	// Voice continuity on the home system.
	beforeRTP := term.Media.Received()
	msRxBefore := ms.FramesReceived()
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() <= beforeRTP {
		t.Fatal("uplink media stopped after handback")
	}
	if ms.FramesReceived() <= msRxBefore {
		t.Fatal("downlink media stopped after handback")
	}

	// Clearing works exactly like a never-handed-over call.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.ActiveCalls() != 0 || n.VMSC.ActiveCalls() != 0 {
		t.Fatal("call state leaked after post-handback hangup")
	}
	expectDrained(t, n.Residual())
}

// TestSubsequentHandoffToThirdMSC moves the MS a second time, from the
// first legacy MSC to another one: the relay asks the anchor, the anchor
// prepares MSC-3 and re-homes the trunk, and the first MSC's circuit is
// released.
func TestSubsequentHandoffToThirdMSC(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	term := n.Terminals[0]

	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("first handover did not complete")
	}

	ms.ReportNeighbor(n.Env, n.ThirdCell)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)

	if got := n.VMSC.Stats().Handovers; got != 2 {
		t.Fatalf("anchor handover count = %d, want 2", got)
	}
	if n.MSC3.HandoversIn() != 1 {
		t.Fatalf("MSC-3 handovers in = %d", n.MSC3.HandoversIn())
	}
	if n.ETrunks.InUse() != 0 {
		t.Fatalf("old E trunk not released: %d in use", n.ETrunks.InUse())
	}
	if n.ETrunks3.InUse() != 1 {
		t.Fatalf("new E trunk in use = %d, want 1", n.ETrunks3.InUse())
	}
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "MAP_PREPARE_SUBSEQUENT_HANDOVER", From: "MSC-2", To: "VMSC-1"},
		{Msg: "MAP_PREPARE_HANDOVER", From: "VMSC-1", To: "MSC-3", Iface: "E"},
		{Msg: "MAP_PREPARE_HANDOVER_ack", From: "MSC-3", To: "VMSC-1"},
		{Msg: "ISUP_IAM", From: "VMSC-1", To: "MSC-3"},
		{Msg: "MAP_PREPARE_SUBSEQUENT_HANDOVER_ack", From: "VMSC-1", To: "MSC-2"},
		{Msg: "Um_Handover_Command", To: "MS-1"},
		{Msg: "Um_Handover_Complete", From: "MS-1", To: "BTS-3"},
		{Msg: "MAP_SEND_END_SIGNAL", From: "MSC-3", To: "VMSC-1"},
		{Msg: "ISUP_REL", From: "VMSC-1", To: "MSC-2"},
	}); err != nil {
		t.Fatal(err)
	}

	// Voice continuity via MSC-3.
	beforeRTP := term.Media.Received()
	msRxBefore := ms.FramesReceived()
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if term.Media.Received() <= beforeRTP {
		t.Fatal("uplink media stopped after second handover")
	}
	if ms.FramesReceived() <= msRxBefore {
		t.Fatal("downlink media stopped after second handover")
	}

	// Hangup from the third system clears everything.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.ETrunks3.InUse() != 0 {
		t.Fatalf("MSC-3 trunk leaked: %d", n.ETrunks3.InUse())
	}
	if term.ActiveCalls() != 0 || n.VMSC.ActiveCalls() != 0 {
		t.Fatal("call state leaked after hangup on MSC-3")
	}
	expectDrained(t, n.Residual())
}

// TestSubsequentHandbackBetweenVMSCs is the handback with a VMSC as the
// relay: the paper's "same procedure" claim extends to subsequent
// handovers, with the second VMSC relaying the MS's request to the anchor
// through the identical MAP E exchange a legacy MSC would use.
func TestSubsequentHandbackBetweenVMSCs(t *testing.T) {
	n := BuildHandoffVMSC(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("first handover did not complete")
	}

	homeCell := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}
	ms.ReportNeighbor(n.Env, homeCell)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)

	if got := n.VMSC.Stats().Handovers; got != 2 {
		t.Fatalf("anchor handover count = %d, want 2", got)
	}
	if n.ETrunks.InUse() != 0 {
		t.Fatalf("E trunk not released after handback: %d", n.ETrunks.InUse())
	}
	if _, err := n.Rec.ExpectFlow(Handback("VMSC-2")); err != nil {
		t.Fatal(err)
	}

	// Call survives and clears normally.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.VMSC.ActiveCalls() != 0 || n.Terminals[0].ActiveCalls() != 0 {
		t.Fatal("call state leaked")
	}
	expectDrained(t, n.Residual())
}

// TestSubsequentHandoverToUnknownCellRefused covers the refusal path: the
// relayed request names a cell the anchor has no neighbour relation for.
// The anchor answers with a failure cause, the MS stays on the relay
// system, and the call continues undisturbed.
func TestSubsequentHandoverToUnknownCellRefused(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n.VGPRSNet)
	if !n.RunHandoff(ms, 10*time.Second) {
		t.Fatal("first handover did not complete")
	}

	unknown := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 9}, CI: 0x90}
	ms.ReportNeighbor(n.Env, unknown)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)

	if got := n.VMSC.Stats().Handovers; got != 1 {
		t.Fatalf("handover count = %d, want 1 (refused move must not count)", got)
	}
	if n.ETrunks.InUse() != 1 {
		t.Fatalf("E trunk state changed on refusal: %d in use", n.ETrunks.InUse())
	}
	if _, ok := n.Rec.First(trace.Step{Msg: "MAP_PREPARE_SUBSEQUENT_HANDOVER"}); !ok {
		t.Fatal("relay never asked the anchor")
	}

	// Voice still flows on the relay system, and the MS can still come
	// home afterwards — the refused attempt leaves no stuck state.
	term := n.Terminals[0]
	before := term.Media.Received()
	n.Env.RunUntil(n.Env.Now() + time.Second)
	if term.Media.Received() <= before {
		t.Fatal("media stopped after refused subsequent handover")
	}
	ms.ReportNeighbor(n.Env, n.HomeCell)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if n.VMSC.Stats().Handovers != 2 || n.ETrunks.InUse() != 0 {
		t.Fatal("handback after a refused attempt failed")
	}
}

// TestHandoffBuildersKeepCallerMutator passes a VMSCMutate to both Fig 9
// builders: it must run before the builder adds its handover peers, so the
// caller's hook reaches VMSC-1 and the builder's targets still carry the
// call across.
func TestHandoffBuildersKeepCallerMutator(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target sim.NodeID
		build  func(VGPRSOptions) (*VGPRSNet, func(*gsm.MS, time.Duration) bool)
	}{
		{"msc", "MSC-2", func(o VGPRSOptions) (*VGPRSNet, func(*gsm.MS, time.Duration) bool) {
			n := BuildHandoff(o)
			return n.VGPRSNet, n.RunHandoff
		}},
		{"vmsc", "VMSC-2", func(o VGPRSOptions) (*VGPRSNet, func(*gsm.MS, time.Duration) bool) {
			n := BuildHandoffVMSC(o)
			return n.VGPRSNet, n.RunHandoff
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var completed []sim.NodeID
			n, runHandoff := tc.build(VGPRSOptions{Seed: 1, VMSCMutate: func(cfg *vmsc.Config) {
				cfg.Hooks.OnHandoverComplete = func(_ gsmid.IMSI, target sim.NodeID) {
					completed = append(completed, target)
				}
			}})
			if !runHandoff(establishedCall(t, n), 10*time.Second) {
				t.Fatal("handover did not complete")
			}
			if len(completed) != 1 || completed[0] != tc.target {
				t.Fatalf("caller's OnHandoverComplete saw %v, want [%s]", completed, tc.target)
			}
		})
	}
}
