package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

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
	// Figure 1's defining constraint: a BSC connects to exactly one SGSN
	// and one MSC-position element.
	if n.Env.HasLink("BSC-1", "SGSN-1") {
		t.Log("BSC has a direct PCU link (allowed for plain GPRS MSs)")
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

// TestFigure2Paths verifies Fig 2(b)'s two paths. The data path of a GPRS
// MS is (1)(2)(3)(4): MS-BSC-SGSN-GGSN. The voice path is (1)(2)(5)(6)(4):
// MS-BSC-VMSC-SGSN-GGSN, with (1)(2)(5) circuit switched.
func TestFigure2Paths(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if n.MSs[0].State() != gsm.MSInCall {
		t.Fatalf("call not established: %v", n.MSs[0].State())
	}

	// Voice path: a speech frame crosses Um (CS), Abis (CS), A (CS), then
	// Gb/Gn as packets — in that order for one uplink frame.
	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		{Msg: "Um_TCH_Frame", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "(1)"},
		{Msg: "Abis_TCH_Frame", From: "BTS-1", To: "BSC-1", Iface: "Abis", Note: "(2)"},
		{Msg: "A_TCH_Frame", From: "BSC-1", To: "VMSC-1", Iface: "A", Note: "(5)"},
		{Msg: "Gb_UL_UNITDATA", From: "VMSC-1", To: "SGSN-1", Iface: "Gb", Note: "(6)"},
		{Msg: "GTP T-PDU", From: "SGSN-1", To: "GGSN-1", Iface: "Gn", Note: "(4)"},
	}); err != nil {
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
	if n.Rec.CountOnInterface("RAS") == 0 || n.Rec.CountOnInterface("H.225") == 0 {
		t.Error("missing H.323-layer arrows in the trace")
	}
}

// TestFigure4Registration asserts the exact message flow of paper Fig 4,
// steps 1.1-1.6.
func TestFigure4Registration(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		// Step 1.1: location update up the radio path, MAP to the VLR.
		{Msg: "Um_Location_Update_Request", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "1.1"},
		{Msg: "Abis_Location_Update", From: "BTS-1", To: "BSC-1", Iface: "Abis", Note: "1.1"},
		{Msg: "A_Location_Update", From: "BSC-1", To: "VMSC-1", Iface: "A", Note: "1.1"},
		{Msg: "MAP_UPDATE_LOCATION_AREA", From: "VMSC-1", To: "VLR-1", Iface: "B", Note: "1.1"},
		// Step 1.2: HLR update, profile insertion, ack to the VMSC.
		{Msg: "MAP_UPDATE_LOCATION", From: "VLR-1", To: "HLR", Iface: "D", Note: "1.2"},
		{Msg: "MAP_INSERT_SUBS_DATA", From: "HLR", To: "VLR-1", Note: "1.2"},
		{Msg: "MAP_UPDATE_LOCATION_AREA_ack", From: "VLR-1", To: "VMSC-1", Note: "1.2"},
		// Step 1.3: GPRS attach + signalling PDP context activation,
		// performed by the VMSC "just like a GPRS MS does".
		{Msg: "Gb_UL_UNITDATA", From: "VMSC-1", To: "SGSN-1", Iface: "Gb", Note: "1.3"},
		{Msg: "MAP_UPDATE_GPRS_LOCATION", From: "SGSN-1", To: "HLR", Note: "1.3"},
		{Msg: "GTP Create PDP Context Request", From: "SGSN-1", To: "GGSN-1", Note: "1.3"},
		{Msg: "MAP_SEND_ROUTING_INFO_FOR_GPRS", From: "GGSN-1", To: "HLR", Iface: "Gc", Note: "1.3"},
		{Msg: "GTP Create PDP Context Response", From: "GGSN-1", To: "SGSN-1", Note: "1.3"},
		// Steps 1.4-1.5: gatekeeper registration.
		{Msg: "RAS RRQ", From: "VMSC-1", To: "GK", Iface: "RAS", Note: "1.4"},
		{Msg: "RAS RCF", From: "GK", To: "VMSC-1", Iface: "RAS", Note: "1.5"},
		// Step 1.6: accept to the MS.
		{Msg: "A_Location_Update_Accept", From: "VMSC-1", To: "BSC-1", Note: "1.6"},
		{Msg: "Um_Location_Update_Accept", From: "BTS-1", To: "MS-1", Note: "1.6"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5Origination asserts the message flow of paper Fig 5, steps
// 2.1-2.9 (call origination) and 3.1-3.4 (release).
func TestFigure5OriginationAndRelease(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
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
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)

	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		// Step 2.1: channel assignment, then the dialled digits.
		{Msg: "Um_Channel_Request", From: "MS-1", Note: "2.1"},
		{Msg: "Um_Immediate_Assignment", To: "MS-1", Note: "2.1"},
		{Msg: "Um_Setup", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "2.1"},
		{Msg: "A_Setup", From: "BSC-1", To: "VMSC-1", Note: "2.1"},
		// Step 2.2: outgoing-call authorization.
		{Msg: "MAP_SEND_INFO_FOR_OUTGOING_CALL", From: "VMSC-1", To: "VLR-1", Note: "2.2"},
		{Msg: "MAP_SEND_INFO_FOR_OUTGOING_CALL_ack", From: "VLR-1", Note: "2.2"},
		// Step 2.3: admission and address translation.
		{Msg: "RAS ARQ", From: "VMSC-1", To: "GK", Note: "2.3"},
		{Msg: "RAS ACF", From: "GK", To: "VMSC-1", Note: "2.3"},
		// Step 2.4: Setup to the terminal, Call Proceeding back.
		{Msg: "Q.931 Setup", From: "VMSC-1", To: "TERM-1", Iface: "H.225", Note: "2.4"},
		{Msg: "Q.931 Call Proceeding", From: "TERM-1", To: "VMSC-1", Note: "2.4"},
		// Step 2.5: the terminal's own admission exchange.
		{Msg: "RAS ARQ", From: "TERM-1", To: "GK", Note: "2.5"},
		{Msg: "RAS ACF", From: "GK", To: "TERM-1", Note: "2.5"},
		// Steps 2.6-2.7: alerting toward the MS (ringback).
		{Msg: "Q.931 Alerting", From: "TERM-1", To: "VMSC-1", Note: "2.6"},
		{Msg: "A_Alerting", From: "VMSC-1", To: "BSC-1", Note: "2.7"},
		{Msg: "Abis_Alerting", From: "BSC-1", To: "BTS-1", Note: "2.7"},
		{Msg: "Um_Alerting", From: "BTS-1", To: "MS-1", Note: "2.7"},
		// Step 2.8: answer. (The VMSC relays Connect down the radio path
		// and starts the voice-PDP activation concurrently, so the test
		// anchors on A_Connect; Um_Connect lands one radio hop later.)
		{Msg: "Q.931 Connect", From: "TERM-1", To: "VMSC-1", Note: "2.8"},
		{Msg: "A_Connect", From: "VMSC-1", To: "BSC-1", Note: "2.8"},
		// Step 2.9: second PDP context for the voice packets.
		{Msg: "Activate PDP Context Request", Note: "2.9"},
		{Msg: "GTP Create PDP Context Request", From: "SGSN-1", To: "GGSN-1", Note: "2.9"},
		{Msg: "Um_Connect", To: "MS-1", Note: "2.8"},
		// Steps 3.1-3.4: release.
		{Msg: "Um_Disconnect", From: "MS-1", Note: "3.1"},
		{Msg: "A_Disconnect", To: "VMSC-1", Note: "3.1"},
		{Msg: "Q.931 Release Complete", From: "VMSC-1", To: "TERM-1", Note: "3.2"},
		{Msg: "RAS DRQ", From: "VMSC-1", To: "GK", Note: "3.3"},
		// Step 3.4 proceeds while the DCF is still crossing the tunnel.
		{Msg: "Deactivate PDP Context Request", Note: "3.4"},
		{Msg: "GTP Delete PDP Context Request", Note: "3.4"},
		{Msg: "RAS DCF", From: "GK", To: "VMSC-1", Note: "3.3"},
	}); err != nil {
		t.Fatal(err)
	}
	// Step 3.3 also happens on the terminal side.
	if n.Rec.CountMessages("RAS DRQ") < 2 {
		t.Error("terminal did not disengage (step 3.3 requires both sides)")
	}
}

// TestFigure6Termination asserts the message flow of paper Fig 6, steps
// 4.1-4.8.
func TestFigure6Termination(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	n.Rec.Reset()
	term := n.Terminals[0]
	if _, err := term.Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if n.MSs[0].State() != gsm.MSInCall {
		t.Fatalf("call not established: %v", n.MSs[0].State())
	}

	if err := n.Rec.ExpectSequence([]trace.ExpectStep{
		// Step 4.1: the caller's ARQ; the GK translates the MSISDN to
		// the MS's IP address.
		{Msg: "RAS ARQ", From: "TERM-1", To: "GK", Note: "4.1"},
		{Msg: "RAS ACF", From: "GK", To: "TERM-1", Note: "4.1"},
		// Step 4.2: Setup through the GGSN (routed by the PDP context),
		// Call Proceeding back.
		{Msg: "Q.931 Setup", From: "TERM-1", To: "VMSC-1", Iface: "H.225", Note: "4.2"},
		{Msg: "GTP T-PDU", From: "GGSN-1", To: "SGSN-1", Note: "4.2"},
		{Msg: "Gb_DL_UNITDATA", From: "SGSN-1", To: "VMSC-1", Note: "4.2"},
		{Msg: "Q.931 Call Proceeding", From: "VMSC-1", To: "TERM-1", Note: "4.2"},
		// Step 4.3: VMSC's admission exchange.
		{Msg: "RAS ARQ", From: "VMSC-1", To: "GK", Note: "4.3"},
		{Msg: "RAS ACF", From: "GK", To: "VMSC-1", Note: "4.3"},
		// Step 4.4: paging.
		{Msg: "A_Paging", From: "VMSC-1", To: "BSC-1", Note: "4.4"},
		{Msg: "Abis_Paging", From: "BSC-1", To: "BTS-1", Note: "4.4"},
		{Msg: "Um_Paging_Request", From: "BTS-1", To: "MS-1", Note: "4.4"},
		// Step 4.5: paging response, then Setup to the MS.
		{Msg: "Um_Paging_Response", From: "MS-1", Note: "4.5"},
		{Msg: "A_Setup", From: "VMSC-1", To: "BSC-1", Note: "4.5"},
		{Msg: "Um_Setup", From: "BTS-1", To: "MS-1", Note: "4.5"},
		// Step 4.6: MS rings; alerting to the terminal (ringback).
		{Msg: "Um_Alerting", From: "MS-1", Note: "4.6"},
		{Msg: "Q.931 Alerting", From: "VMSC-1", To: "TERM-1", Note: "4.6"},
		// Step 4.7: answer.
		{Msg: "Um_Connect", From: "MS-1", Note: "4.7"},
		{Msg: "Q.931 Connect", From: "VMSC-1", To: "TERM-1", Note: "4.7"},
		// Step 4.8: voice PDP context.
		{Msg: "Activate PDP Context Request", Note: "4.8"},
	}); err != nil {
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
