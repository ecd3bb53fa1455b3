package vlr

import (
	"testing"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/hlr"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/ss7"
)

const (
	testIMSI   = gsmid.IMSI("466920000000001")
	testMSISDN = gsmid.MSISDN("886912345678")
)

var testKi = [16]byte{0xA5, 1, 2, 3}

// stubMSC emulates the (V)MSC side of the B interface: it relays the VLR's
// authentication challenge to a perfect software SIM and accepts ciphering.
type stubMSC struct {
	id        sim.NodeID
	got       []sim.Message
	wrongSRES bool // answer challenges incorrectly
}

func (m *stubMSC) ID() sim.NodeID { return m.id }

func (m *stubMSC) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	m.got = append(m.got, msg)
	switch t := msg.(type) {
	case sigmap.Authenticate:
		sres := hlr.SRES(testKi, t.RAND)
		if m.wrongSRES {
			sres[0] ^= 0xFF
		}
		env.Send(m.id, from, sigmap.AuthenticateAck{Invoke: t.Invoke, Cause: sigmap.CauseNone, SRES: sres})
	case sigmap.SetCipherMode:
		env.Send(m.id, from, sigmap.SetCipherModeAck{Invoke: t.Invoke, Cause: sigmap.CauseNone})
	}
}

func (m *stubMSC) find(name string) (sim.Message, bool) {
	for _, g := range m.got {
		if g.Name() == name {
			return g, true
		}
	}
	return nil, false
}

type fixture struct {
	env  *sim.Env
	vlr  *VLR
	hlr  *hlr.HLR
	msc  *stubMSC
	gmsc *stubMSC
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	env := sim.NewEnv(1)
	if cfg.ID == "" {
		cfg.ID = "VLR-1"
	}
	if cfg.HLR == "" {
		cfg.HLR = "HLR"
	}
	if cfg.HomeCountryCode == "" {
		cfg.HomeCountryCode = "886"
	}
	v := New(cfg)
	h := hlr.New(hlr.Config{ID: "HLR"})
	msc := &stubMSC{id: "VMSC-1"}
	gmsc := &stubMSC{id: "GMSC"}
	env.AddNode(v)
	env.AddNode(h)
	env.AddNode(msc)
	env.AddNode(gmsc)
	env.Connect("VMSC-1", "VLR-1", "B", time.Millisecond)
	env.Connect("VLR-1", "HLR", "D", time.Millisecond)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)
	env.Connect("GMSC", "VLR-1", "B", time.Millisecond)

	if err := h.Provision(hlr.Subscriber{
		IMSI:   testIMSI,
		MSISDN: testMSISDN,
		Ki:     testKi,
		Profile: sigmap.SubscriberProfile{
			MSISDN:               testMSISDN,
			InternationalAllowed: false,
			VoIPQoS:              2,
		},
	}); err != nil {
		t.Fatal(err)
	}
	return &fixture{env: env, vlr: v, hlr: h, msc: msc, gmsc: gmsc}
}

func (f *fixture) register(t *testing.T) sigmap.UpdateLocationAreaAck {
	t.Helper()
	f.env.Send("VMSC-1", "VLR-1", sigmap.UpdateLocationArea{
		Invoke:   1,
		Identity: gsmid.ByIMSI(testIMSI),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		MSC:      "VMSC-1",
	})
	f.env.Run()
	raw, ok := f.msc.find("MAP_UPDATE_LOCATION_AREA_ack")
	if !ok {
		t.Fatal("no UpdateLocationAreaAck")
	}
	return raw.(sigmap.UpdateLocationAreaAck)
}

func TestLocationUpdateFullFlow(t *testing.T) {
	f := newFixture(t, Config{})
	ack := f.register(t)
	if ack.Cause != sigmap.CauseNone {
		t.Fatalf("cause = %v", ack.Cause)
	}
	if ack.TMSI == 0 || ack.IMSI != testIMSI {
		t.Fatalf("ack = %+v", ack)
	}
	// The MSC saw authentication and ciphering.
	if _, ok := f.msc.find("MAP_AUTHENTICATE"); !ok {
		t.Error("no authentication challenge reached the MSC")
	}
	if _, ok := f.msc.find("MAP_SET_CIPHER_MODE"); !ok {
		t.Error("no ciphering command reached the MSC")
	}
	// VLR context installed with profile and ciphering.
	ctx, ok := f.vlr.Lookup(testIMSI)
	if !ok {
		t.Fatal("no MM context")
	}
	if ctx.Profile.MSISDN != testMSISDN || !ctx.Ciphered || ctx.MSC != "VMSC-1" {
		t.Fatalf("ctx = %+v", ctx)
	}
	// HLR points at this VLR.
	rec, _ := f.hlr.Lookup(testIMSI)
	if rec.VLR != "VLR-1" {
		t.Fatalf("HLR record VLR = %q", rec.VLR)
	}
	if f.vlr.Registered() != 1 {
		t.Fatalf("Registered = %d", f.vlr.Registered())
	}
}

// TestLocationUpdateRetransmitIsDeduped repeats an UpdateLocationArea — same
// MSC, same invoke ID, as the registrar's retry timer would — while the first
// is mid-chain: one transaction in flight, one authentication chain, one
// answer; the same invoke from another MSC is its own transaction. Afterwards
// the dedupe table is empty and balanced.
func TestLocationUpdateRetransmitIsDeduped(t *testing.T) {
	f := newFixture(t, Config{})
	ula := sigmap.UpdateLocationArea{
		Invoke: 1, Identity: gsmid.ByIMSI(testIMSI),
		LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, MSC: "VMSC-1",
	}
	f.env.Send("VMSC-1", "VLR-1", ula)
	f.env.RunUntil(1500 * time.Microsecond) // arrived; auth vectors requested
	f.env.Send("VMSC-1", "VLR-1", ula)
	f.env.RunUntil(2500 * time.Microsecond)
	if n := f.vlr.PendingUpdates(); n != 1 {
		t.Fatalf("%d location updates in flight after a retransmission, want 1", n)
	}
	f.env.Send("GMSC", "VLR-1", ula)
	f.env.RunUntil(3500 * time.Microsecond)
	if n := f.vlr.PendingUpdates(); n != 2 {
		t.Fatalf("%d location updates in flight with a second MSC, want 2", n)
	}
	f.env.Run()
	acks := 0
	for _, m := range f.msc.got {
		if _, ok := m.(sigmap.UpdateLocationAreaAck); ok {
			acks++
		}
	}
	if acks != 1 || f.vlr.PendingUpdates() != 0 || f.vlr.SlabImbalance() != 0 {
		t.Fatalf("%d acks to the retransmitting MSC, %d still pending, imbalance %d",
			acks, f.vlr.PendingUpdates(), f.vlr.SlabImbalance())
	}
}

func TestLocationUpdateByTMSIAfterFirstRegistration(t *testing.T) {
	f := newFixture(t, Config{})
	first := f.register(t)
	f.msc.got = nil
	f.env.Send("VMSC-1", "VLR-1", sigmap.UpdateLocationArea{
		Invoke:   2,
		Identity: gsmid.ByTMSI(first.TMSI),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 2},
		MSC:      "VMSC-1",
	})
	f.env.Run()
	raw, ok := f.msc.find("MAP_UPDATE_LOCATION_AREA_ack")
	if !ok {
		t.Fatal("no ack for TMSI update")
	}
	ack := raw.(sigmap.UpdateLocationAreaAck)
	if ack.Cause != sigmap.CauseNone {
		t.Fatalf("cause = %v", ack.Cause)
	}
	if ack.TMSI == first.TMSI {
		t.Error("TMSI must be reallocated on each location update")
	}
	ctx, _ := f.vlr.Lookup(testIMSI)
	if ctx.LAI.LAC != 2 {
		t.Fatalf("LAI not refreshed: %+v", ctx.LAI)
	}
}

func TestLocationUpdateUnknownTMSIRejected(t *testing.T) {
	f := newFixture(t, Config{})
	f.env.Send("VMSC-1", "VLR-1", sigmap.UpdateLocationArea{
		Invoke:   1,
		Identity: gsmid.ByTMSI(0xBAD),
		MSC:      "VMSC-1",
	})
	f.env.Run()
	raw, _ := f.msc.find("MAP_UPDATE_LOCATION_AREA_ack")
	if raw.(sigmap.UpdateLocationAreaAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("expected unknown-subscriber")
	}
}

func TestLocationUpdateWrongSRESRejected(t *testing.T) {
	f := newFixture(t, Config{})
	f.msc.wrongSRES = true
	ack := f.register(t)
	if ack.Cause != sigmap.CauseNotAllowed {
		t.Fatalf("cause = %v, want not-allowed on auth failure", ack.Cause)
	}
	if f.vlr.Registered() != 0 {
		t.Fatal("failed auth must not install an MM context")
	}
}

func TestLocationUpdateUnknownIMSI(t *testing.T) {
	f := newFixture(t, Config{})
	f.env.Send("VMSC-1", "VLR-1", sigmap.UpdateLocationArea{
		Invoke:   1,
		Identity: gsmid.ByIMSI("466929999999999"),
		MSC:      "VMSC-1",
	})
	f.env.Run()
	raw, _ := f.msc.find("MAP_UPDATE_LOCATION_AREA_ack")
	ack := raw.(sigmap.UpdateLocationAreaAck)
	if ack.Cause == sigmap.CauseNone {
		t.Fatal("unknown IMSI must be rejected")
	}
}

func TestAuthDisabledSkipsChallenge(t *testing.T) {
	f := newFixture(t, Config{AuthDisabled: true})
	ack := f.register(t)
	if ack.Cause != sigmap.CauseNone {
		t.Fatalf("cause = %v", ack.Cause)
	}
	if _, ok := f.msc.find("MAP_AUTHENTICATE"); ok {
		t.Fatal("AuthDisabled must skip the challenge")
	}
	ctx, _ := f.vlr.Lookup(testIMSI)
	if ctx.Ciphered {
		t.Fatal("AuthDisabled must not claim ciphering")
	}
}

func TestOutgoingCallAuthorization(t *testing.T) {
	f := newFixture(t, Config{})
	ack := f.register(t)
	f.msc.got = nil

	// Domestic call: allowed.
	f.env.Send("VMSC-1", "VLR-1", sigmap.SendInfoForOutgoingCall{
		Invoke: 10, Identity: gsmid.ByTMSI(ack.TMSI), Called: "886955555555",
	})
	f.env.Run()
	raw, _ := f.msc.find("MAP_SEND_INFO_FOR_OUTGOING_CALL_ack")
	got := raw.(sigmap.SendInfoForOutgoingCallAck)
	if got.Cause != sigmap.CauseNone || got.IMSI != testIMSI || got.MSISDN != testMSISDN {
		t.Fatalf("domestic call ack = %+v", got)
	}

	// International call without the service: rejected.
	f.msc.got = nil
	f.env.Send("VMSC-1", "VLR-1", sigmap.SendInfoForOutgoingCall{
		Invoke: 11, Identity: gsmid.ByTMSI(ack.TMSI), Called: "85291234567",
	})
	f.env.Run()
	raw, _ = f.msc.find("MAP_SEND_INFO_FOR_OUTGOING_CALL_ack")
	if raw.(sigmap.SendInfoForOutgoingCallAck).Cause != sigmap.CauseNotAllowed {
		t.Fatal("international call should be barred for this profile")
	}

	// Unknown identity: rejected.
	f.msc.got = nil
	f.env.Send("VMSC-1", "VLR-1", sigmap.SendInfoForOutgoingCall{
		Invoke: 12, Identity: gsmid.ByTMSI(0xFFFF), Called: "886955555555",
	})
	f.env.Run()
	raw, _ = f.msc.find("MAP_SEND_INFO_FOR_OUTGOING_CALL_ack")
	if raw.(sigmap.SendInfoForOutgoingCallAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("unknown TMSI should be rejected")
	}
}

func TestRoamingNumberLifecycle(t *testing.T) {
	f := newFixture(t, Config{})
	f.register(t)

	// HLR-side PRN (driven here directly by the GMSC stub for isolation).
	// Bounded runs: Run() to quiescence would fire the 30s MSRN expiry
	// timer, which is exactly what this test must observe NOT happening
	// during normal call delivery.
	f.env.Send("GMSC", "VLR-1", sigmap.ProvideRoamingNumber{Invoke: 20, IMSI: testIMSI, GMSC: "GMSC"})
	f.env.RunUntil(f.env.Now() + 10*time.Millisecond)
	raw, ok := f.gmsc.find("MAP_PROVIDE_ROAMING_NUMBER_ack")
	if !ok {
		t.Fatal("no PRN ack")
	}
	prn := raw.(sigmap.ProvideRoamingNumberAck)
	if prn.Cause != sigmap.CauseNone || prn.MSRN == "" {
		t.Fatalf("PRN ack = %+v", prn)
	}
	if f.vlr.OutstandingMSRNs() != 1 {
		t.Fatalf("OutstandingMSRNs = %d", f.vlr.OutstandingMSRNs())
	}

	// Incoming call resolves the MSRN exactly once.
	f.gmsc.got = nil
	f.env.Send("GMSC", "VLR-1", sigmap.SendInfoForIncomingCall{Invoke: 21, MSRN: prn.MSRN})
	f.env.RunUntil(f.env.Now() + 10*time.Millisecond)
	raw, _ = f.gmsc.find("MAP_SEND_INFO_FOR_INCOMING_CALL_ack")
	in := raw.(sigmap.SendInfoForIncomingCallAck)
	if in.Cause != sigmap.CauseNone || in.IMSI != testIMSI || in.MSISDN != testMSISDN {
		t.Fatalf("incoming ack = %+v", in)
	}

	f.gmsc.got = nil
	f.env.Send("GMSC", "VLR-1", sigmap.SendInfoForIncomingCall{Invoke: 22, MSRN: prn.MSRN})
	f.env.RunUntil(f.env.Now() + 10*time.Millisecond)
	raw, _ = f.gmsc.find("MAP_SEND_INFO_FOR_INCOMING_CALL_ack")
	if raw.(sigmap.SendInfoForIncomingCallAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("MSRN must be single-use")
	}
}

func TestRoamingNumberForDetachedSubscriber(t *testing.T) {
	f := newFixture(t, Config{})
	f.env.Send("GMSC", "VLR-1", sigmap.ProvideRoamingNumber{Invoke: 20, IMSI: testIMSI})
	f.env.Run()
	raw, _ := f.gmsc.find("MAP_PROVIDE_ROAMING_NUMBER_ack")
	if raw.(sigmap.ProvideRoamingNumberAck).Cause != sigmap.CauseAbsentSubscriber {
		t.Fatal("expected absent-subscriber without MM context")
	}
}

func TestRoamingNumberExpires(t *testing.T) {
	f := newFixture(t, Config{MSRNLifetime: 100 * time.Millisecond})
	f.register(t)
	f.env.Send("GMSC", "VLR-1", sigmap.ProvideRoamingNumber{Invoke: 20, IMSI: testIMSI})
	f.env.Run() // includes the expiry timer
	if f.vlr.OutstandingMSRNs() != 0 {
		t.Fatal("MSRN should have expired")
	}
}

func TestCancelLocationPurgesContext(t *testing.T) {
	f := newFixture(t, Config{})
	f.register(t)
	f.env.Send("GMSC", "VLR-1", sigmap.CancelLocation{Invoke: 30, IMSI: testIMSI})
	f.env.Run()
	if f.vlr.Registered() != 0 {
		t.Fatal("context not purged")
	}
	if _, ok := f.gmsc.find("MAP_CANCEL_LOCATION_ack"); !ok {
		t.Fatal("no cancel ack")
	}
}

func TestMSRNsAreDistinct(t *testing.T) {
	f := newFixture(t, Config{})
	f.register(t)
	seen := make(map[gsmid.MSISDN]bool)
	for i := 0; i < 5; i++ {
		f.gmsc.got = nil
		f.env.Send("GMSC", "VLR-1", sigmap.ProvideRoamingNumber{Invoke: ss7Invoke(40 + i), IMSI: testIMSI})
		f.env.RunUntil(f.env.Now() + 10*time.Millisecond)
		raw, ok := f.gmsc.find("MAP_PROVIDE_ROAMING_NUMBER_ack")
		if !ok {
			t.Fatal("no PRN ack")
		}
		msrn := raw.(sigmap.ProvideRoamingNumberAck).MSRN
		if seen[msrn] {
			t.Fatalf("duplicate MSRN %s", msrn)
		}
		seen[msrn] = true
	}
}

func TestVerifySRES(t *testing.T) {
	rand := [16]byte{1, 2, 3}
	sres := hlr.SRES(testKi, rand)
	if !VerifySRES(testKi, rand, sres) {
		t.Fatal("valid SRES rejected")
	}
	sres[0] ^= 1
	if VerifySRES(testKi, rand, sres) {
		t.Fatal("invalid SRES accepted")
	}
}

func ss7Invoke(i int) ss7.InvokeID { return ss7.InvokeID(i) }
