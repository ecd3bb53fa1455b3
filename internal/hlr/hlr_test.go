package hlr

import (
	"testing"
	"testing/quick"
	"time"

	"vgprs/internal/gsmid"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

const (
	testIMSI   = gsmid.IMSI("466920000000001")
	testMSISDN = gsmid.MSISDN("886912345678")
)

// stubPeer is a scriptable MAP peer (VLR / GMSC / SGSN / GGSN stand-in).
type stubPeer struct {
	id  sim.NodeID
	got []sim.Message
	// onMsg, when set, can reply.
	onMsg func(env *sim.Env, from sim.NodeID, msg sim.Message)
}

func (p *stubPeer) ID() sim.NodeID { return p.id }

func (p *stubPeer) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	p.got = append(p.got, msg)
	if p.onMsg != nil {
		p.onMsg(env, from, msg)
	}
}

func (p *stubPeer) find(name string) (sim.Message, bool) {
	for _, m := range p.got {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

func newHLREnv(t *testing.T) (*sim.Env, *HLR) {
	t.Helper()
	env := sim.NewEnv(1)
	h := New(Config{ID: "HLR"})
	env.AddNode(h)
	if err := h.Provision(Subscriber{
		IMSI:   testIMSI,
		MSISDN: testMSISDN,
		Ki:     [16]byte{1, 2, 3},
		Profile: sigmap.SubscriberProfile{
			MSISDN:               testMSISDN,
			InternationalAllowed: true,
			VoIPQoS:              2,
		},
	}); err != nil {
		t.Fatal(err)
	}
	return env, h
}

// ackingVLR answers InsertSubscriberData and CancelLocation positively and
// allocates MSRNs for ProvideRoamingNumber.
func ackingVLR(id sim.NodeID, msrn gsmid.MSISDN) *stubPeer {
	p := &stubPeer{id: id}
	p.onMsg = func(env *sim.Env, from sim.NodeID, msg sim.Message) {
		switch m := msg.(type) {
		case sigmap.InsertSubscriberData:
			env.Send(p.id, from, sigmap.InsertSubscriberDataAck{Invoke: m.Invoke})
		case sigmap.CancelLocation:
			env.Send(p.id, from, sigmap.CancelLocationAck{Invoke: m.Invoke})
		case sigmap.ProvideRoamingNumber:
			env.Send(p.id, from, sigmap.ProvideRoamingNumberAck{
				Invoke: m.Invoke, Cause: sigmap.CauseNone, MSRN: msrn,
			})
		}
	}
	return p
}

func TestProvisionDuplicates(t *testing.T) {
	_, h := newHLREnv(t)
	if err := h.Provision(Subscriber{IMSI: testIMSI, MSISDN: "886900000001"}); err == nil {
		t.Fatal("duplicate IMSI accepted")
	}
	if err := h.Provision(Subscriber{IMSI: "466920000000999", MSISDN: testMSISDN}); err == nil {
		t.Fatal("duplicate MSISDN accepted")
	}
}

func TestUpdateLocationInsertsProfileThenAcks(t *testing.T) {
	env, h := newHLREnv(t)
	vlr := ackingVLR("VLR-1", "886900000100")
	env.AddNode(vlr)
	env.Connect("HLR", "VLR-1", "D", time.Millisecond)

	env.Send("VLR-1", "HLR", sigmap.UpdateLocation{Invoke: 42, IMSI: testIMSI, VLR: "VLR-1", MSC: "VMSC-1"})
	env.Run()

	isdRaw, ok := vlr.find("MAP_INSERT_SUBS_DATA")
	if !ok {
		t.Fatal("VLR never received InsertSubscriberData")
	}
	isd := isdRaw.(sigmap.InsertSubscriberData)
	if isd.Profile.MSISDN != testMSISDN || !isd.Profile.InternationalAllowed {
		t.Fatalf("profile = %+v", isd.Profile)
	}
	ackRaw, ok := vlr.find("MAP_UPDATE_LOCATION_ack")
	if !ok {
		t.Fatal("VLR never received UpdateLocationAck")
	}
	ack := ackRaw.(sigmap.UpdateLocationAck)
	if ack.Invoke != 42 || ack.Cause != sigmap.CauseNone {
		t.Fatalf("ack = %+v", ack)
	}
	rec, _ := h.Lookup(testIMSI)
	if rec.VLR != "VLR-1" || rec.MSC != "VMSC-1" {
		t.Fatalf("record = %+v", rec)
	}
}

func TestUpdateLocationUnknownSubscriber(t *testing.T) {
	env, _ := newHLREnv(t)
	vlr := ackingVLR("VLR-1", "")
	env.AddNode(vlr)
	env.Connect("HLR", "VLR-1", "D", time.Millisecond)

	env.Send("VLR-1", "HLR", sigmap.UpdateLocation{Invoke: 1, IMSI: "999990000000000", VLR: "VLR-1"})
	env.Run()

	ackRaw, ok := vlr.find("MAP_UPDATE_LOCATION_ack")
	if !ok {
		t.Fatal("no ack")
	}
	if ackRaw.(sigmap.UpdateLocationAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatalf("cause = %v", ackRaw.(sigmap.UpdateLocationAck).Cause)
	}
}

func TestUpdateLocationCancelsOldVLR(t *testing.T) {
	env, _ := newHLREnv(t)
	oldVLR := ackingVLR("VLR-old", "")
	newVLR := ackingVLR("VLR-new", "")
	env.AddNode(oldVLR)
	env.AddNode(newVLR)
	env.Connect("HLR", "VLR-old", "D", time.Millisecond)
	env.Connect("HLR", "VLR-new", "D", time.Millisecond)

	env.Send("VLR-old", "HLR", sigmap.UpdateLocation{Invoke: 1, IMSI: testIMSI, VLR: "VLR-old"})
	env.Run()
	env.Send("VLR-new", "HLR", sigmap.UpdateLocation{Invoke: 2, IMSI: testIMSI, VLR: "VLR-new"})
	env.Run()

	if _, ok := oldVLR.find("MAP_CANCEL_LOCATION"); !ok {
		t.Fatal("old VLR was not cancelled")
	}
	if _, ok := newVLR.find("MAP_CANCEL_LOCATION"); ok {
		t.Fatal("new VLR wrongly cancelled")
	}
}

func TestSendAuthenticationInfo(t *testing.T) {
	env, _ := newHLREnv(t)
	vlr := &stubPeer{id: "VLR-1"}
	env.AddNode(vlr)
	env.Connect("HLR", "VLR-1", "D", time.Millisecond)

	env.Send("VLR-1", "HLR", sigmap.SendAuthenticationInfo{Invoke: 5, IMSI: testIMSI, Count: 3})
	env.Run()

	ackRaw, ok := vlr.find("MAP_SEND_AUTHENTICATION_INFO_ack")
	if !ok {
		t.Fatal("no auth ack")
	}
	ack := ackRaw.(sigmap.SendAuthenticationInfoAck)
	if len(ack.Triplets) != 3 {
		t.Fatalf("triplets = %d", len(ack.Triplets))
	}
	// Each triplet must verify against the provisioned Ki.
	ki := [16]byte{1, 2, 3}
	for i, tr := range ack.Triplets {
		want := GenerateTriplet(ki, tr.RAND)
		if tr != want {
			t.Errorf("triplet %d does not verify against Ki", i)
		}
	}
	// Challenges must differ (fresh RANDs).
	if ack.Triplets[0].RAND == ack.Triplets[1].RAND {
		t.Error("repeated RAND challenge")
	}
}

func TestSendAuthInfoUnknownSubscriber(t *testing.T) {
	env, _ := newHLREnv(t)
	vlr := &stubPeer{id: "VLR-1"}
	env.AddNode(vlr)
	env.Connect("HLR", "VLR-1", "D", time.Millisecond)
	env.Send("VLR-1", "HLR", sigmap.SendAuthenticationInfo{Invoke: 5, IMSI: "111110000000000"})
	env.Run()
	ackRaw, _ := vlr.find("MAP_SEND_AUTHENTICATION_INFO_ack")
	if ackRaw.(sigmap.SendAuthenticationInfoAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("expected unknown-subscriber")
	}
}

func TestSendRoutingInformationRelaysToVLR(t *testing.T) {
	env, _ := newHLREnv(t)
	vlr := ackingVLR("VLR-1", "886900000777")
	gmsc := &stubPeer{id: "GMSC"}
	env.AddNode(vlr)
	env.AddNode(gmsc)
	env.Connect("HLR", "VLR-1", "D", time.Millisecond)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)

	// Register first so the HLR knows the serving VLR.
	env.Send("VLR-1", "HLR", sigmap.UpdateLocation{Invoke: 1, IMSI: testIMSI, VLR: "VLR-1", MSC: "VMSC-1"})
	env.Run()

	env.Send("GMSC", "HLR", sigmap.SendRoutingInformation{Invoke: 9, MSISDN: testMSISDN})
	env.Run()

	ackRaw, ok := gmsc.find("MAP_SEND_ROUTING_INFORMATION_ack")
	if !ok {
		t.Fatal("no SRI ack")
	}
	ack := ackRaw.(sigmap.SendRoutingInformationAck)
	if ack.Invoke != 9 || ack.Cause != sigmap.CauseNone || ack.MSRN != "886900000777" {
		t.Fatalf("ack = %+v", ack)
	}
	if _, ok := vlr.find("MAP_PROVIDE_ROAMING_NUMBER"); !ok {
		t.Fatal("VLR never asked for roaming number")
	}
}

func TestSendRoutingInformationDetachedSubscriber(t *testing.T) {
	env, _ := newHLREnv(t)
	gmsc := &stubPeer{id: "GMSC"}
	env.AddNode(gmsc)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)

	env.Send("GMSC", "HLR", sigmap.SendRoutingInformation{Invoke: 9, MSISDN: testMSISDN})
	env.Run()

	ackRaw, _ := gmsc.find("MAP_SEND_ROUTING_INFORMATION_ack")
	if ackRaw.(sigmap.SendRoutingInformationAck).Cause != sigmap.CauseAbsentSubscriber {
		t.Fatal("expected absent-subscriber for detached MS")
	}
}

func TestSendRoutingInformationUnknownNumber(t *testing.T) {
	env, _ := newHLREnv(t)
	gmsc := &stubPeer{id: "GMSC"}
	env.AddNode(gmsc)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)
	env.Send("GMSC", "HLR", sigmap.SendRoutingInformation{Invoke: 9, MSISDN: "886999999999"})
	env.Run()
	ackRaw, _ := gmsc.find("MAP_SEND_ROUTING_INFORMATION_ack")
	if ackRaw.(sigmap.SendRoutingInformationAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("expected unknown-subscriber")
	}
}

func TestGPRSLocationLifecycle(t *testing.T) {
	env, h := newHLREnv(t)
	sgsn := &stubPeer{id: "SGSN-1"}
	ggsn := &stubPeer{id: "GGSN-1"}
	env.AddNode(sgsn)
	env.AddNode(ggsn)
	env.Connect("SGSN-1", "HLR", "Gr", time.Millisecond)
	env.Connect("GGSN-1", "HLR", "Gc", time.Millisecond)

	// Before attach: Gc query reports absent.
	env.Send("GGSN-1", "HLR", sigmap.SendRoutingInfoForGPRS{Invoke: 1, IMSI: testIMSI})
	env.Run()
	ackRaw, _ := ggsn.find("MAP_SEND_ROUTING_INFO_FOR_GPRS_ack")
	if ackRaw.(sigmap.SendRoutingInfoForGPRSAck).Cause != sigmap.CauseAbsentSubscriber {
		t.Fatal("expected absent before GPRS attach")
	}

	// Attach via Gr.
	env.Send("SGSN-1", "HLR", sigmap.UpdateGPRSLocation{Invoke: 2, IMSI: testIMSI, SGSN: "SGSN-1"})
	env.Run()
	if rec, _ := h.Lookup(testIMSI); rec.SGSN != "SGSN-1" {
		t.Fatalf("SGSN = %q", rec.SGSN)
	}

	// After attach: Gc query returns the SGSN.
	ggsn.got = nil
	env.Send("GGSN-1", "HLR", sigmap.SendRoutingInfoForGPRS{Invoke: 3, IMSI: testIMSI})
	env.Run()
	ackRaw, _ = ggsn.find("MAP_SEND_ROUTING_INFO_FOR_GPRS_ack")
	ack := ackRaw.(sigmap.SendRoutingInfoForGPRSAck)
	if ack.Cause != sigmap.CauseNone || ack.SGSN != "SGSN-1" {
		t.Fatalf("Gc ack = %+v", ack)
	}
}

func TestUpdateGPRSLocationUnknown(t *testing.T) {
	env, _ := newHLREnv(t)
	sgsn := &stubPeer{id: "SGSN-1"}
	env.AddNode(sgsn)
	env.Connect("SGSN-1", "HLR", "Gr", time.Millisecond)
	env.Send("SGSN-1", "HLR", sigmap.UpdateGPRSLocation{Invoke: 2, IMSI: "111110000000000", SGSN: "SGSN-1"})
	env.Run()
	ackRaw, _ := sgsn.find("MAP_UPDATE_GPRS_LOCATION_ack")
	if ackRaw.(sigmap.UpdateGPRSLocationAck).Cause != sigmap.CauseUnknownSubscriber {
		t.Fatal("expected unknown-subscriber")
	}
}

func TestGenerateTripletDeterministic(t *testing.T) {
	ki := [16]byte{9}
	rand := [16]byte{7}
	a := GenerateTriplet(ki, rand)
	b := GenerateTriplet(ki, rand)
	if a != b {
		t.Fatal("triplet generation must be deterministic in (Ki, RAND)")
	}
	if SRES(ki, rand) != a.SRES {
		t.Fatal("SRES mismatch")
	}
}

func TestGenerateTripletKeySeparationProperty(t *testing.T) {
	prop := func(ki1, ki2, rand [16]byte) bool {
		if ki1 == ki2 {
			return true
		}
		return GenerateTriplet(ki1, rand).SRES != GenerateTriplet(ki2, rand).SRES
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
