package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// TestFigureFlowsAreValid validates every committed flow: no cycle, no
// unknown predecessor, no two unordered steps that could match one entry.
func TestFigureFlowsAreValid(t *testing.T) {
	for name, f := range map[string]trace.Flow{
		"Fig 2(b) voice path":        Fig2VoicePath,
		"Fig 4 registration":         Fig4Registration,
		"Fig 5 origination, release": Fig5Call,
		"Fig 6 termination":          Fig6Termination,
		"Fig 7 tromboning":           Fig7Trombone,
		"Fig 8 local call":           Fig8Local,
		"Fig 8 GK miss":              Fig8GKMiss,
		"Fig 9 to MSC-2":             Fig9Handoff("MSC-2"),
		"Fig 9 to VMSC-2 (§7)":       Fig9Handoff("VMSC-2"),
		"handback from MSC-2":        Handback("MSC-2"),
		"handback from VMSC-2":       Handback("VMSC-2"),
		"TR 23.923 MO call":          TRMOCall,
		"TR 23.923 MT call":          TRMTCall,
	} {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFigure1Topology verifies the reference GPRS architecture of paper
// Fig 1: the node set and interface graph (BTS-BSC-{MSC,SGSN}-GGSN-PSDN
// with the HLR/VLR attachments). The vGPRS network embeds it with the VMSC
// in the MSC position.
func TestFigure1Topology(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	edges := [][2]sim.NodeID{
		{"MS-1", "BTS-1"},    // Um
		{"BTS-1", "BSC-1"},   // Abis
		{"BSC-1", "VMSC-1"},  // A (the MSC position)
		{"VMSC-1", "SGSN-1"}, // Gb
		{"SGSN-1", "GGSN-1"}, // Gn
		{"GGSN-1", "GI"},     // Gi -> PSDN
		{"VMSC-1", "VLR-1"},  // B
		{"VLR-1", "HLR"},     // D
		{"SGSN-1", "HLR"},    // Gr
		{"GGSN-1", "HLR"},    // Gc
	}
	for _, e := range edges {
		if !n.Env.HasLink(e[0], e[1]) {
			t.Errorf("missing link %s <-> %s", e[0], e[1])
		}
	}
	// Figure 1's defining constraint: a BSC connects to one MSC-position
	// element and to at most one SGSN (a PCU link for plain GPRS MSs).
	var mscs, sgsns int
	for _, nb := range n.Env.Neighbors("BSC-1") {
		switch {
		case strings.HasPrefix(string(nb), "VMSC-"), strings.HasPrefix(string(nb), "MSC-"):
			mscs++
		case strings.HasPrefix(string(nb), "SGSN-"):
			sgsns++
		}
	}
	if mscs != 1 || sgsns > 1 {
		t.Fatalf("BSC-1 neighbours %v: %d MSC-position elements, %d SGSNs", n.Env.Neighbors("BSC-1"), mscs, sgsns)
	}
}

// TestFigure2Interfaces verifies the VMSC interface set of Fig 2(a): A to
// the BSC, B to the VLR, Gb to the SGSN — plus the E/ISUP faces exercised
// by the handoff build.
func TestFigure2Interfaces(t *testing.T) {
	n := BuildHandoff(VGPRSOptions{Seed: 1})
	for _, peer := range []sim.NodeID{"BSC-1", "VLR-1", "SGSN-1", "MSC-2"} {
		if !n.Env.HasLink("VMSC-1", peer) {
			t.Errorf("VMSC missing interface to %s", peer)
		}
	}
}

// establishedCall registers every MS on n, clears the trace, has MS-1 dial
// TERM-1 and runs 3 s: the call must be up. It returns MS-1.
func establishedCall(t *testing.T, n *VGPRSNet) *gsm.MS {
	t.Helper()
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	n.Rec.Reset()
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("call not established: %v", ms.State())
	}
	return ms
}

// TestFigure2Paths verifies Fig 2(b)'s two paths. The data path of a GPRS
// MS is (1)(2)(3)(4): MS-BSC-SGSN-GGSN. The voice path is (1)(2)(5)(6)(4):
// MS-BSC-VMSC-SGSN-GGSN, with (1)(2)(5) circuit switched.
func TestFigure2Paths(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	establishedCall(t, n)
	if _, err := n.Rec.ExpectFlow(Fig2VoicePath); err != nil {
		t.Fatal(err)
	}
}

// TestFigure3ProtocolStack verifies the per-link protocol layering of
// Fig 3: H.323 signalling is TCP/IP end to end, carried by GTP on the Gn
// link and by the Gb protocol between VMSC and SGSN, while links (5)-(7)
// stay pure GSM.
func TestFigure3ProtocolStack(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)

	byIface := n.Rec.MessagesByInterface()
	// Links (3) and (4): tunnel protocols carried traffic.
	if byIface["Gn"] == 0 {
		t.Error("no GTP traffic on Gn (Fig 3 link (3))")
	}
	if byIface["Gb"] == 0 {
		t.Error("no Gb traffic (Fig 3 link (4))")
	}
	// Links (1), (2), (8): IP in the H.323 network.
	if byIface["IP"] == 0 && byIface["Gi"] == 0 {
		t.Error("no IP traffic toward the H.323 network (links (1)/(2)/(8))")
	}
	// Links (5)-(7): GSM only — no IP packet ever crosses Um/Abis/A.
	for _, e := range n.Rec.Entries() {
		switch e.Iface {
		case "Um", "Abis", "A":
			if strings.HasPrefix(e.Msg.Name(), "IP/") || strings.HasPrefix(e.Msg.Name(), "GTP") {
				t.Errorf("packet protocol %q crossed GSM link %s", e.Msg.Name(), e.Iface)
			}
		}
	}
	// The logical H.225/RAS arrows exist above the tunnel.
	if byIface["RAS"] == 0 || byIface["H.225"] == 0 {
		t.Error("missing H.323-layer arrows in the trace")
	}
}

// TestFigure4Registration asserts the message flow of paper Fig 4, steps
// 1.1-1.6.
func TestFigure4Registration(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Rec.ExpectFlow(Fig4Registration); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5OriginationAndRelease runs paper Fig 5: an MS-originated call,
// steps 2.1-2.9, speech both ways, and the MS's release, steps 3.1-3.4. The
// trace holds the Fig 5 flow; replayed into a fresh Recorder with the two
// DRQs swapped (independent release branches) it still does, and with a DRQ
// and its own DCF swapped it does not.
func TestFigure5OriginationAndRelease(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	ms := establishedCall(t, n)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	entries := n.Rec.Entries()
	first := func(s trace.Step) int {
		for i, e := range entries {
			if s.Matches(e) {
				return i
			}
		}
		t.Fatalf("no entry for %s", s)
		return -1
	}
	replay := func(a, b trace.Step) error {
		i, j := first(a), first(b)
		r := trace.NewRecorder()
		for k := range entries {
			e := entries[k]
			switch k {
			case i:
				e = entries[j]
			case j:
				e = entries[i]
			}
			r.Trace(e.At, e.From, e.To, e.Iface, e.Msg)
		}
		_, err := r.ExpectFlow(Fig5Call)
		return err
	}
	drq := trace.Step{Msg: "RAS DRQ", From: "VMSC-1"}
	if err := replay(drq, drq); err != nil {
		t.Fatal(err)
	}
	if err := replay(drq, trace.Step{Msg: "RAS DRQ", From: "TERM-1"}); err != nil {
		t.Errorf("independent branches swapped: %v", err)
	}
	if err := replay(drq, trace.Step{Msg: "RAS DCF", To: "VMSC-1"}); err == nil {
		t.Error("a DCF before its DRQ passed")
	}
}

// terminatedCall registers n, resets its trace and has TERM-1 call MS-1
// (Fig 6), failing t unless both ends are connected.
func terminatedCall(t *testing.T, n *VGPRSNet) (*gsm.MS, *h323.Terminal, uint16) {
	t.Helper()
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	n.Rec.Reset()
	ms, term := n.MSs[0], n.Terminals[0]
	ref, err := term.Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if st, _ := term.CallState(ref); st != h323.LegConnected || ms.State() != gsm.MSInCall {
		t.Fatalf("call not established: terminal %v, MS %v", st, ms.State())
	}
	return ms, term, ref
}

// TestFigure6Termination asserts the message flow of paper Fig 6, steps
// 4.1-4.8.
func TestFigure6Termination(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	terminatedCall(t, n)
	if _, err := n.Rec.ExpectFlow(Fig6Termination); err != nil {
		t.Fatal(err)
	}
}

// TestC4IMSIConfidentiality audits the §6 claim: in vGPRS the gatekeeper is
// a standard H.323 element and never observes the IMSI (unlike TR 23.923,
// whose gatekeeper must query the HLR with it).
func TestC4IMSIConfidentiality(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	// A full MO + MT call cycle.
	if err := n.MSs[0].Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if err := n.MSs[0].Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)

	if n.GK.KnownIMSIs() != 0 {
		t.Fatalf("the vGPRS gatekeeper memorized %d IMSIs, want 0", n.GK.KnownIMSIs())
	}
	imsi := string(n.Subscribers[0].IMSI)
	for _, e := range n.Rec.Entries() {
		if e.To != "GK" && e.From != "GK" {
			continue
		}
		if strings.Contains(fmt.Sprintf("%+v", e.Msg), imsi) {
			t.Fatalf("IMSI leaked to the gatekeeper: %s", e)
		}
	}
	// The MSISDN, by contrast, IS the gatekeeper's alias (step 1.4) —
	// confirm the audit would catch identities if present.
	found := false
	msisdn := string(n.Subscribers[0].MSISDN)
	for _, e := range n.Rec.Entries() {
		if e.To == "GK" && strings.Contains(fmt.Sprintf("%+v", e.Msg), msisdn) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("audit saw no MSISDN at the gatekeeper; the check is vacuous")
	}
}
