package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/trace"
)

func TestFig7TrombonedGSMCall(t *testing.T) {
	n := BuildRoamingGSM(1)
	if err := n.Register(); err != nil {
		t.Fatal(err)
	}
	connected := false
	n.PhoneY.SetOnConnected(func(uint32) { connected = true })

	if _, err := n.PhoneY.Call(n.Env, RoamerMSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	if !connected || n.MS.State() != gsm.MSInCall {
		t.Fatalf("connected=%v ms=%v", connected, n.MS.State())
	}
	// The paper's headline: the local call became TWO international
	// trunks (Fig 7 arrows (1) and (2)).
	if got := n.InternationalSeizures(); got != 2 {
		t.Fatalf("international trunk seizures = %d, want 2", got)
	}
	if n.IntlToUK.InUse() != 1 || n.IntlToHK.InUse() != 1 {
		t.Fatalf("trunks in use UK=%d HK=%d", n.IntlToUK.InUse(), n.IntlToHK.InUse())
	}
	// The signalling path matches Fig 7: call to the UK GMSC, HLR
	// interrogation, trunk back to Hong Kong.
	if _, err := n.Rec.ExpectFlow(Fig7Trombone); err != nil {
		t.Fatal(err)
	}
	// Voice flows over the tromboned path.
	n.Env.RunUntil(n.Env.Now() + time.Second)
	if n.PhoneY.FramesReceived() == 0 || n.MS.FramesReceived() == 0 {
		t.Fatalf("frames y=%d x=%d", n.PhoneY.FramesReceived(), n.MS.FramesReceived())
	}
	// Clearing releases both international circuits.
	if err := n.PhoneY.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if n.IntlToUK.InUse() != 0 || n.IntlToHK.InUse() != 0 {
		t.Fatalf("trunks leaked UK=%d HK=%d", n.IntlToUK.InUse(), n.IntlToHK.InUse())
	}
	expectDrained(t, n.Residual())
}

func TestFig8TromboneEliminated(t *testing.T) {
	n := BuildRoamingVGPRS(1)
	if err := n.Register(); err != nil {
		t.Fatal(err)
	}
	connected := false
	n.PhoneY.SetOnConnected(func(uint32) { connected = true })

	if _, err := n.PhoneY.Call(n.Env, RoamerMSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	if !connected || n.MS.State() != gsm.MSInCall {
		t.Fatalf("connected=%v ms=%v", connected, n.MS.State())
	}
	// The paper's claim: zero international trunks; one local trunk.
	if got := n.InternationalSeizures(); got != 0 {
		t.Fatalf("international seizures = %d, want 0", got)
	}
	if n.LocalTrunks.TotalSeizures() != 1 {
		t.Fatalf("local seizures = %d, want 1", n.LocalTrunks.TotalSeizures())
	}
	if completed, refused := n.Gateway.Stats(); completed != 1 || refused != 0 {
		t.Fatalf("gateway completed=%d refused=%d", completed, refused)
	}
	// The Fig 8 sequence: local routing, gatekeeper table probe, VoIP
	// call setup toward the VMSC.
	if _, err := n.Rec.ExpectFlow(Fig8Local); err != nil {
		t.Fatal(err)
	}
	// Voice flows over the local VoIP path.
	n.Env.RunUntil(n.Env.Now() + time.Second)
	if n.PhoneY.FramesReceived() == 0 || n.MS.FramesReceived() == 0 {
		t.Fatalf("frames y=%d x=%d", n.PhoneY.FramesReceived(), n.MS.FramesReceived())
	}
	// Clearing from the roamer side releases the gateway trunk.
	if err := n.MS.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if n.LocalTrunks.InUse() != 0 {
		t.Fatalf("local trunk leaked: %d", n.LocalTrunks.InUse())
	}
	if n.PhoneY.InCall() {
		t.Fatal("phone still in call")
	}
	expectDrained(t, n.Residual())
}

// TestMSCallsPSTNPhoneThroughGateway covers the paper §4 statement that the
// called party "can also be a traditional telephone set in the PSTN, which
// is connected indirectly to the GPRS network through the H.323 network":
// the roamer dials y's fixed number; the gatekeeper admits toward the
// gateway, which builds the trunk leg to the local exchange.
func TestMSCallsPSTNPhoneThroughGateway(t *testing.T) {
	n := BuildRoamingVGPRS(4)
	if err := n.Register(); err != nil {
		t.Fatal(err)
	}
	// Make y answer automatically.
	n.PhoneY.SetOnConnected(nil)
	phoneRang := false
	n.PhoneY.SetOnIncoming(func(uint32, gsmid.MSISDN) { phoneRang = true })
	n.PhoneY.SetAutoAnswer(200 * time.Millisecond)

	connected := false
	n.MS.SetOnConnected(func(uint32) { connected = true })
	if err := n.MS.Dial(n.Env, CallerNumber); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	if !phoneRang || !connected || n.MS.State() != gsm.MSInCall {
		t.Fatalf("rang=%v connected=%v state=%v", phoneRang, connected, n.MS.State())
	}
	if _, err := n.Rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Setup", From: "MS-X"},
		{Msg: "RAS ARQ", From: "VMSC-HK", To: "GK-HK"},
		{Msg: "RAS ACF", From: "GK-HK", To: "VMSC-HK"},
		{Msg: "Q.931 Setup", From: "VMSC-HK", To: "GW-HK"},
		{Msg: "ISUP_IAM", From: "GW-HK", To: "LE-HK"},
		{Msg: "ISUP_IAM", From: "LE-HK", To: "PHONE-Y"},
		{Msg: "ISUP_ANM", From: "PHONE-Y"},
		{Msg: "Um_Connect", To: "MS-X"},
	}); err != nil {
		t.Fatal(err)
	}
	// Voice flows both ways across the gateway.
	n.Env.RunUntil(n.Env.Now() + time.Second)
	if n.PhoneY.FramesReceived() == 0 || n.MS.FramesReceived() == 0 {
		t.Fatalf("frames y=%d x=%d", n.PhoneY.FramesReceived(), n.MS.FramesReceived())
	}
	// Clearing from the MS releases the gateway trunk.
	if err := n.MS.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if n.LocalTrunks.InUse() != 0 {
		t.Fatalf("gateway trunk leaked: %d", n.LocalTrunks.InUse())
	}
	if n.PhoneY.InCall() {
		t.Fatal("phone still in call")
	}
}

func TestFig8FallbackToPSTNOnGKMiss(t *testing.T) {
	n := BuildRoamingVGPRS(2)
	if err := n.Register(); err != nil {
		t.Fatal(err)
	}
	connected := false
	n.PhoneY.SetOnConnected(func(uint32) { connected = true })

	// Call a UK fixed line: not in the gatekeeper table, so the gateway
	// refuses and the exchange falls back to the international route.
	if _, err := n.PhoneY.Call(n.Env, UKFixedNumber); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	if !connected {
		t.Fatal("fallback call did not complete")
	}
	if _, refused := n.Gateway.Stats(); refused != 1 {
		t.Fatalf("gateway refusals = %d", refused)
	}
	if n.InternationalSeizures() != 1 {
		t.Fatalf("international seizures = %d, want 1 (normal PSTN call)", n.InternationalSeizures())
	}
	if _, err := n.Rec.ExpectFlow(Fig8GKMiss); err != nil {
		t.Fatal(err)
	}
}
