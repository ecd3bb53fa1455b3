package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// TestReRegistrationUsesTMSIAndFastPath covers the paper's §3 closing
// remark: "the registration procedure for MS movement is similar ... which
// is likely to occur for location update due to MS movement [with TMSI]".
// The VMSC must not repeat the GPRS attach or gatekeeper registration: the
// MS table entry already exists.
func TestReRegistrationUsesTMSIAndFastPath(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1, VMSCMutate: nil})
	// Rebuild the MS with TMSI re-use enabled.
	ms := gsm.NewMS(gsm.MSConfig{
		ID: "MS-T", IMSI: n.Subscribers[0].IMSI, MSISDN: n.Subscribers[0].MSISDN,
		Ki: n.Subscribers[0].Ki, BTS: "BTS-1",
		LAI:                     gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		UseTMSIAfterFirstUpdate: true,
		AutoAnswer:              true,
		AnswerDelay:             100 * time.Millisecond,
	})
	n.Env.AddNode(ms)
	n.Env.Connect("MS-T", "BTS-1", "Um", 10*time.Millisecond)

	n.Terminals[0].Register(n.Env)
	ms.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("initial registration failed: %v", ms.State())
	}
	firstTMSI, _ := ms.TMSI()
	attaches := n.Rec.CountMessages("GPRS Attach Request")
	rrqs := n.Rec.CountMessages("RAS RRQ")
	n.Rec.Reset()

	// Movement: new location area, same VMSC.
	if err := ms.UpdateLocation(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("re-registration failed: %v", ms.State())
	}

	// The air interface carried a TMSI, not the IMSI.
	lu, ok := n.Rec.First(trace.Step{Msg: "Um_Location_Update_Request", From: "MS-T"})
	if !ok {
		t.Fatal("no location update in trace")
	}
	req := lu.Msg.(gsm.LocationUpdate)
	if req.Identity.Kind != gsmid.IdentityTMSI || req.Identity.TMSI != firstTMSI {
		t.Fatalf("re-registration identity = %v, want %v", req.Identity, firstTMSI)
	}
	// A fresh TMSI was allocated.
	newTMSI, _ := ms.TMSI()
	if newTMSI == firstTMSI {
		t.Fatal("TMSI not reallocated on location update")
	}
	// Fast path: no second GPRS attach, no second gatekeeper RRQ.
	if n.Rec.CountMessages("GPRS Attach Request") != 0 {
		t.Fatalf("re-registration repeated GPRS attach (initial run had %d)", attaches)
	}
	if n.Rec.CountMessages("RAS RRQ") != 0 {
		t.Fatalf("re-registration repeated gatekeeper registration (initial run had %d)", rrqs)
	}
	// The MS can still receive calls afterwards.
	ref, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	_ = ref
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("post-movement MT call failed: %v", ms.State())
	}
}

// TestMovementBetweenCellsOfOneVMSC moves the MS to a second BTS/cell under
// the same VMSC and verifies calls follow it there.
func TestMovementBetweenCellsOfOneVMSC(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	// Add a second cell under the same BSC.
	bts2 := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-1b", BSC: "BSC-1"})
	n.Env.AddNode(bts2)
	n.Env.Connect("BTS-1b", "BSC-1", "Abis", 2*time.Millisecond)
	n.Env.Connect(sim.NodeID(n.MSs[0].ID()), "BTS-1b", "Um", 10*time.Millisecond)
	// The BSC pages into every cell it controls.
	// (BTS list is fixed at construction; re-add via config would be a
	// topology rebuild, so this test relies on the serving-cell learning
	// the BSC does from uplink traffic.)

	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	if err := ms.MoveTo(n.Env, "BTS-1b", gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("state after move = %v", ms.State())
	}

	// An MT call now pages and connects through the new cell.
	if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("MT call after move failed: %v", ms.State())
	}
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Setup", From: "BTS-1b", To: "MS-1"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPowerOffDeregisters covers the reverse of Fig 4: IMSI detach removes
// the gatekeeper row and the GPRS contexts, incoming calls then fail
// cleanly, and the MS can register again afterwards.
func TestPowerOffDeregisters(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 8})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	term := n.Terminals[0]

	if err := ms.PowerOff(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	if ms.State() != gsm.MSDetached {
		t.Fatalf("state = %v", ms.State())
	}
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "Um_IMSI_Detach", From: "MS-1"},
		{Msg: "A_IMSI_Detach", To: "VMSC-1"},
		{Msg: "RAS URQ", From: "VMSC-1", To: "GK"},
		{Msg: "GPRS Detach Request"},
	}); err != nil {
		t.Fatal(err)
	}
	// The gatekeeper row is gone; only the terminal remains registered.
	if n.GK.Registered() != 1 {
		t.Fatalf("GK rows = %d", n.GK.Registered())
	}
	// All the MS's contexts are released at the SGSN.
	if n.SGSN.ActiveContexts() != 0 || n.SGSN.Attached() != 0 {
		t.Fatalf("SGSN contexts=%d attached=%d", n.SGSN.ActiveContexts(), n.SGSN.Attached())
	}
	if n.BSC.ChannelsInUse() != 0 {
		t.Fatalf("channels leaked: %d", n.BSC.ChannelsInUse())
	}

	// An incoming call now fails cleanly (ARJ: alias not registered).
	ref, err := term.Call(n.Env, n.Subscribers[0].MSISDN)
	if err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if st, _ := term.CallState(ref); st != h323.LegReleasing {
		t.Fatalf("call to detached MS state = %v", st)
	}

	// Power back on: the full Fig 4 procedure runs again and calls work.
	ms.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("re-registration failed: %v", ms.State())
	}
	if n.GK.Registered() != 2 || n.SGSN.ActiveContexts() != 1 {
		t.Fatalf("GK=%d contexts=%d after re-registration", n.GK.Registered(), n.SGSN.ActiveContexts())
	}
	if _, err := term.Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("post-reregistration MT call failed: %v", ms.State())
	}
}

// TestPeriodicLocationUpdate covers the GSM T3212 periodic registration: an
// idle MS re-registers on the configured interval, using the fast path (no
// repeated GPRS attach or RRQ).
func TestPeriodicLocationUpdate(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 5})
	ms := gsm.NewMS(gsm.MSConfig{
		ID: "MS-P", IMSI: n.Subscribers[0].IMSI, MSISDN: n.Subscribers[0].MSISDN,
		Ki: n.Subscribers[0].Ki, BTS: "BTS-1",
		LAI:                     gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		UseTMSIAfterFirstUpdate: true,
		PeriodicUpdate:          30 * time.Second,
	})
	n.Env.AddNode(ms)
	n.Env.Connect("MS-P", "BTS-1", "Um", 10*time.Millisecond)
	n.Terminals[0].Register(n.Env)
	ms.PowerOn(n.Env)
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if ms.State() != gsm.MSIdle {
		t.Fatalf("initial registration failed: %v", ms.State())
	}
	initialUpdates := n.Rec.CountMessages("Um_Location_Update_Request")

	// Two periodic cycles pass.
	n.Env.RunUntil(n.Env.Now() + 70*time.Second)
	updates := n.Rec.CountMessages("Um_Location_Update_Request")
	if updates < initialUpdates+2 {
		t.Fatalf("location updates = %d, want at least %d", updates, initialUpdates+2)
	}
	// Still exactly one GPRS attach and one gatekeeper registration.
	if n.Rec.CountMessages("GPRS Attach Request") != 1 {
		t.Fatalf("attach count = %d", n.Rec.CountMessages("GPRS Attach Request"))
	}
	if got := n.Rec.CountMessages("RAS RRQ"); got != 2 { // MS-P + TERM-1
		t.Fatalf("RRQ count = %d", got)
	}
	if ms.State() != gsm.MSIdle {
		t.Fatalf("state after periodic cycles = %v", ms.State())
	}
}
