package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/trace"
)

func area1LAI() gsmid.LAI { return gsmid.LAI{MCC: "466", MNC: "92", LAC: 1} }

// TestInterVMSCMovement is the paper's §5 movement case end to end: an MS
// registered through VMSC-1 moves into VMSC-2's area. The location update
// runs through VMSC-2 and VLR-2, the HLR cancels VLR-1 (and SGSN-1 when the
// new attach lands), VLR-1 tells VMSC-1, and VMSC-1 releases the
// gatekeeper alias and GPRS contexts — after which the alias resolves to
// VMSC-2's address and terminating calls reach the MS through the new
// switch.
func TestInterVMSCMovement(t *testing.T) {
	n := BuildTwoVMSC(VGPRSOptions{Seed: 3})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	sub := n.Subscribers[0]

	addr1, reg1, _ := n.VMSC.Entry(sub.IMSI)
	if !reg1 {
		t.Fatal("not registered at VMSC-1 to begin with")
	}
	if reg, ok := n.GK.Lookup(sub.MSISDN); !ok || reg.SignalAddr != addr1 {
		t.Fatalf("GK alias not at VMSC-1's address: %+v ok=%v", reg, ok)
	}
	if n.SGSN.ActiveContexts() == 0 {
		t.Fatal("no contexts at SGSN-1 before the move")
	}

	if err := ms.MoveTo(n.Env, "BTS-2", n.Area2LAI); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("MS state after move = %v", ms.State())
	}

	// New area serves the subscriber...
	addr2, reg2, ok2 := n.VMSC2.Entry(sub.IMSI)
	if !ok2 || !reg2 {
		t.Fatalf("not registered at VMSC-2: ok=%v registered=%v", ok2, reg2)
	}
	if reg, ok := n.GK.Lookup(sub.MSISDN); !ok || reg.SignalAddr != addr2 {
		t.Fatalf("GK alias not re-pointed to VMSC-2: %+v ok=%v", reg, ok)
	}
	if n.SGSN2.ActiveContexts() == 0 {
		t.Fatal("no contexts at SGSN-2 after the move")
	}

	// ...and the old area cleaned up completely.
	if _, reg, _ := n.VMSC.Entry(sub.IMSI); reg {
		t.Fatal("VMSC-1 still thinks the subscriber is registered")
	}
	if got := n.SGSN.ActiveContexts(); got != 0 {
		t.Fatalf("SGSN-1 still holds %d contexts", got)
	}
	if _, ok := n.HLR.Lookup(sub.IMSI); !ok {
		t.Fatal("HLR record lost")
	}
	rec, _ := n.HLR.Lookup(sub.IMSI)
	if rec.VLR != "VLR-2" || rec.SGSN != "SGSN-2" {
		t.Fatalf("HLR points at VLR=%q SGSN=%q", rec.VLR, rec.SGSN)
	}

	// The cleanup chain is visible in the trace: location update through
	// the new switch, HLR cancel to the old VLR, the VLR's relay to its
	// VMSC, the alias unregistration, and the GPRS detach.
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Location_Update_Request", From: "MS-1", To: "BTS-2"},
		{Msg: "MAP_UPDATE_LOCATION_AREA", From: "VMSC-2", To: "VLR-2", Iface: "B"},
		{Msg: "MAP_UPDATE_LOCATION", From: "VLR-2", To: "HLR", Iface: "D"},
		{Msg: "MAP_CANCEL_LOCATION", From: "HLR", To: "VLR-1"},
		{Msg: "MAP_CANCEL_LOCATION", From: "VLR-1", To: "VMSC-1", Iface: "B"},
		{Msg: "RAS URQ", From: "VMSC-1"},
		{Msg: "GPRS Detach Request", From: "VMSC-1", To: "SGSN-1"},
	}); err != nil {
		t.Fatal(err)
	}

	// A terminating call now lands through VMSC-2.
	if _, err := n.Terminals[0].Call(n.Env, sub.MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("MT call after the move: MS state = %v", ms.State())
	}
	if n.VMSC2.ActiveCalls() != 1 || n.VMSC.ActiveCalls() != 0 {
		t.Fatalf("call anchored wrong: VMSC-2=%d VMSC-1=%d",
			n.VMSC2.ActiveCalls(), n.VMSC.ActiveCalls())
	}

	// And the subscriber can move back.
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if err := ms.MoveTo(n.Env, "BTS-1", area1LAI()); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if _, reg, _ := n.VMSC.Entry(sub.IMSI); !reg {
		t.Fatal("move back to VMSC-1 failed")
	}
	if _, reg, _ := n.VMSC2.Entry(sub.IMSI); reg {
		t.Fatal("VMSC-2 not cleaned up after the move back")
	}
	if got := n.SGSN2.ActiveContexts(); got != 0 {
		t.Fatalf("SGSN-2 still holds %d contexts", got)
	}
}

// TestInterVLRMoveWithTMSIRetries covers GSM 04.08 identity recovery: an MS
// that identifies by TMSI moves to a VLR that has never seen that TMSI.
// The new VLR rejects; the MS deletes the TMSI and retries the location
// update with IMSI, which succeeds — and it is granted a fresh TMSI by the
// new VLR.
func TestInterVLRMoveWithTMSIRetries(t *testing.T) {
	n := BuildTwoVMSC(VGPRSOptions{Seed: 4})
	sub := n.Subscribers[0]
	ms := gsm.NewMS(gsm.MSConfig{
		ID: "MS-T", IMSI: sub.IMSI, MSISDN: sub.MSISDN, Ki: sub.Ki,
		BTS: "BTS-1", LAI: area1LAI(),
		UseTMSIAfterFirstUpdate: true,
		AutoAnswer:              true,
		AnswerDelay:             100 * time.Millisecond,
	})
	n.Env.AddNode(ms)
	n.Env.Connect("MS-T", "BTS-1", "Um", 10*time.Millisecond)
	n.Env.Connect("MS-T", "BTS-2", "Um", 10*time.Millisecond)
	n.Terminals[0].Register(n.Env)

	ms.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("initial registration failed: %v", ms.State())
	}
	tmsi1, has := ms.TMSI()
	if !has {
		t.Fatal("no TMSI after first registration")
	}

	if err := ms.MoveTo(n.Env, "BTS-2", n.Area2LAI); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("inter-VLR move failed: %v", ms.State())
	}
	// The reject-and-retry must be visible: a TMSI attempt, a rejection,
	// then an IMSI attempt.
	rejects := n.Rec.CountMessages("Um_Location_Update_Reject")
	if rejects == 0 {
		t.Fatal("no rejection traced — the TMSI path was never exercised")
	}
	if _, has2 := ms.TMSI(); !has2 {
		t.Fatal("no TMSI granted by the new VLR")
	}
	_ = tmsi1 // TMSI values are only unique per VLR; equality is legal
	if _, reg, _ := n.VMSC2.Entry(sub.IMSI); !reg {
		t.Fatal("not registered at VMSC-2 after the retry")
	}
	// The new VLR must resolve the fresh TMSI: an MT call pages and lands.
	if _, err := n.Terminals[0].Call(n.Env, sub.MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("MT call after TMSI retry: MS state = %v", ms.State())
	}
}
