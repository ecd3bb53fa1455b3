package msc

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/hlr"
	"vgprs/internal/isup"
	"vgprs/internal/pstn"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
	"vgprs/internal/vlr"
)

const (
	testIMSI    = gsmid.IMSI("466920000000001")
	testMSISDN  = gsmid.MSISDN("886912345678")
	phoneNumber = gsmid.MSISDN("886551234567")
)

var testKi = [16]byte{0x42}

type gsmFixture struct {
	env    *sim.Env
	rec    *trace.Recorder
	ms     *gsm.MS
	msc    *MSC
	vlr    *vlr.VLR
	hlr    *hlr.HLR
	phone  *pstn.Phone
	bsc    *gsm.BSC
	trunks *isup.TrunkGroup
}

// newGSMFixture builds a complete classic-GSM network:
// MS - BTS - BSC - MSC - VLR/HLR, with a GMSC+phone on the PSTN side.
func newGSMFixture(t *testing.T, msCfg gsm.MSConfig) *gsmFixture {
	t.Helper()
	env := sim.NewEnv(1)
	rec := trace.NewRecorder()
	env.SetTracer(rec)

	trunks := isup.NewTrunkGroup("MSC<->GMSC", isup.TrunkNational, 8)

	h := hlr.New(hlr.Config{ID: "HLR"})
	if err := h.Provision(hlr.Subscriber{
		IMSI: testIMSI, MSISDN: testMSISDN, Ki: testKi,
		Profile: sigmap.SubscriberProfile{MSISDN: testMSISDN, InternationalAllowed: true},
	}); err != nil {
		t.Fatal(err)
	}
	v := vlr.New(vlr.Config{
		ID: "VLR-1", HLR: "HLR", HomeCountryCode: "886", MSRNPrefix: "88690000",
	})
	m := New(Config{
		ID: "MSC-1", VLR: "VLR-1",
		Trunks: map[sim.NodeID]*isup.TrunkGroup{"GMSC": trunks},
	})
	gmsc := pstn.NewExchange(pstn.ExchangeConfig{
		ID: "GMSC", HLR: "HLR", MobilePrefixes: []string{"88691"},
		Routes: []pstn.Route{
			{Prefix: "88690", Next: "MSC-1", Trunks: trunks},
			{Prefix: "88655", Next: "PHONE"},
		},
	})
	phone := pstn.NewPhone(pstn.PhoneConfig{
		ID: "PHONE", Number: phoneNumber, Exchange: "GMSC",
		AutoAnswer: true, AnswerDelay: 50 * time.Millisecond, Talk: true,
	})

	msCfg.ID = "MS-1"
	msCfg.IMSI = testIMSI
	msCfg.MSISDN = testMSISDN
	msCfg.Ki = testKi
	msCfg.BTS = "BTS-1"
	ms := gsm.NewMS(msCfg)
	bts := gsm.NewBTS(gsm.BTSConfig{ID: "BTS-1", BSC: "BSC-1"})
	bsc := gsm.NewBSC(gsm.BSCConfig{ID: "BSC-1", MSC: "MSC-1", BTSs: []sim.NodeID{"BTS-1"}})

	for _, n := range []sim.Node{h, v, m, gmsc, phone, ms, bts, bsc} {
		env.AddNode(n)
	}
	env.Connect("MS-1", "BTS-1", "Um", time.Millisecond)
	env.Connect("BTS-1", "BSC-1", "Abis", time.Millisecond)
	env.Connect("BSC-1", "MSC-1", "A", time.Millisecond)
	env.Connect("MSC-1", "VLR-1", "B", time.Millisecond)
	env.Connect("VLR-1", "HLR", "D", time.Millisecond)
	env.Connect("GMSC", "HLR", "C", time.Millisecond)
	env.Connect("MSC-1", "GMSC", "ISUP", 2*time.Millisecond)
	env.Connect("PHONE", "GMSC", "Line", time.Millisecond)

	return &gsmFixture{env: env, rec: rec, ms: ms, msc: m, vlr: v, hlr: h, phone: phone, bsc: bsc, trunks: trunks}
}

func (f *gsmFixture) register(t *testing.T) {
	t.Helper()
	f.ms.PowerOn(f.env)
	f.env.RunUntil(f.env.Now() + 5*time.Second)
	if f.ms.State() != gsm.MSIdle {
		t.Fatalf("MS state = %v after registration", f.ms.State())
	}
}

func TestClassicRegistration(t *testing.T) {
	f := newGSMFixture(t, gsm.MSConfig{})
	f.register(t)
	rec, _ := f.hlr.Lookup(testIMSI)
	if rec.MSC != "MSC-1" || rec.VLR != "VLR-1" {
		t.Fatalf("HLR record = %+v", rec)
	}
	// The MSC holds the registration: a call to the subscriber pages MS-1
	// by the TMSI it was given.
	if _, err := f.phone.Call(f.env, testMSISDN); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	tmsi, _ := f.ms.TMSI()
	page, ok := f.rec.First(trace.Step{Msg: "A_Paging", From: "MSC-1"})
	if !ok || page.Msg.(gsm.Paging).Identity != gsmid.ByTMSI(tmsi) {
		t.Fatalf("MSC paged %v (%v), want MS-1 by TMSI %v", page, ok, tmsi)
	}
	// The full Fig-4-minus-GPRS flow appears in the trace.
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Location_Update_Request", From: "MS-1"},
		{Msg: "A_Location_Update", To: "MSC-1"},
		{Msg: "MAP_UPDATE_LOCATION_AREA", From: "MSC-1", To: "VLR-1"},
		{Msg: "MAP_UPDATE_LOCATION", From: "VLR-1", To: "HLR"},
		{Msg: "MAP_INSERT_SUBS_DATA", From: "HLR", To: "VLR-1"},
		{Msg: "MAP_UPDATE_LOCATION_AREA_ack", From: "VLR-1", To: "MSC-1"},
		{Msg: "Um_Location_Update_Accept", To: "MS-1"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMobileOriginatedSetupRefused: this MSC carries no MO calls, so it
// answers a Setup with a Release; the MS clears back to idle and the BSC's
// channel is freed.
func TestMobileOriginatedSetupRefused(t *testing.T) {
	released := false
	f := newGSMFixture(t, gsm.MSConfig{
		Hooks: gsm.MSHooks{OnReleased: func(uint32) { released = true }},
	})
	f.register(t)
	if err := f.ms.Dial(f.env, phoneNumber); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if !released || f.ms.State() != gsm.MSIdle {
		t.Fatalf("after a refused Setup: released=%v state=%v", released, f.ms.State())
	}
	if f.bsc.ChannelsInUse() != 0 {
		t.Fatal("BSC channel leaked after the refused Setup")
	}
	if f.trunks.InUse() != 0 || f.msc.ActiveCalls() != 0 {
		t.Fatal("a refused Setup left call state behind")
	}
}

func TestMobileTerminatedCallFromPSTN(t *testing.T) {
	f := newGSMFixture(t, gsm.MSConfig{
		AutoAnswer: true, AnswerDelay: 50 * time.Millisecond, Talk: true,
	})
	f.register(t)

	connected := false
	f.phoneHook(func() { connected = true })
	if _, err := f.phone.Call(f.env, testMSISDN); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 3*time.Second)

	if !connected {
		t.Fatal("PSTN caller never connected")
	}
	if f.ms.State() != gsm.MSInCall {
		t.Fatalf("MS state = %v", f.ms.State())
	}
	// Voice both ways.
	if f.phone.FramesReceived() == 0 || f.ms.FramesReceived() == 0 {
		t.Fatalf("frames phone=%d ms=%d", f.phone.FramesReceived(), f.ms.FramesReceived())
	}
	// Call delivery went through HLR interrogation and paging.
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "ISUP_IAM", From: "PHONE", To: "GMSC"},
		{Msg: "MAP_SEND_ROUTING_INFORMATION", From: "GMSC", To: "HLR"},
		{Msg: "MAP_PROVIDE_ROAMING_NUMBER", From: "HLR", To: "VLR-1"},
		{Msg: "MAP_SEND_ROUTING_INFORMATION_ack", To: "GMSC"},
		{Msg: "ISUP_IAM", From: "GMSC", To: "MSC-1"},
		{Msg: "MAP_SEND_INFO_FOR_INCOMING_CALL", From: "MSC-1", To: "VLR-1"},
		{Msg: "A_Paging", From: "MSC-1"},
		{Msg: "Um_Paging_Request", To: "MS-1"},
		{Msg: "Um_Setup", To: "MS-1"},
		{Msg: "Um_Alerting", From: "MS-1"},
		{Msg: "ISUP_ACM", From: "MSC-1"},
		{Msg: "Um_Connect", From: "MS-1"},
		{Msg: "ISUP_ANM", From: "MSC-1"},
	}); err != nil {
		t.Fatal(err)
	}

	// Far-end clearing releases the MS.
	if err := f.phone.Hangup(f.env); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.ms.State() != gsm.MSIdle {
		t.Fatalf("MS state after far-end hangup = %v", f.ms.State())
	}
	if f.trunks.InUse() != 0 {
		t.Fatal("trunk leaked")
	}
}

// phoneHook installs an OnConnected hook on the fixture phone.
func (f *gsmFixture) phoneHook(onConnected func()) {
	// The phone's hooks are reachable through its config; pstn exposes
	// them via the struct literal only, so rebuild via a tiny adapter.
	f.phone.SetOnConnected(func(uint32) { onConnected() })
}

func TestHandoverTarget(t *testing.T) {
	f := newGSMFixture(t, gsm.MSConfig{})
	anchor := &anchorStub{id: "ANCHOR"}
	f.env.AddNode(anchor)
	f.env.Connect("ANCHOR", "MSC-1", "E", 2*time.Millisecond)

	// Anchor asks the target to prepare.
	f.env.Send("ANCHOR", "MSC-1", sigmap.PrepareHandover{
		Invoke: 77, IMSI: testIMSI, CallRef: 555,
		TargetCell: gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 2}, CI: 9},
	})
	f.env.Run()
	if anchor.ack.HandoverNumber == "" || anchor.ack.Cause != sigmap.CauseNone {
		t.Fatalf("PrepareHandoverAck = %+v", anchor.ack)
	}
	// A prepared leg sits in both of the target's tables but is one leg.
	if n := f.msc.hoTarget.Open(); n != 1 {
		t.Fatalf("prepared: Open() = %d, want 1", n)
	}

	// Anchor sets up the trunk to the handover number.
	f.env.Send("ANCHOR", "MSC-1", isup.IAM{
		CIC: 7, CallRef: 555, Called: anchor.ack.HandoverNumber,
	})
	f.env.Run()
	if !anchor.answered {
		t.Fatal("handover trunk not answered")
	}
	if n := f.msc.hoTarget.Open(); n != 1 {
		t.Fatalf("trunk answered: Open() = %d, want 1", n)
	}

	// The MS arrives on the target BSC.
	f.env.Send("BSC-1", "MSC-1", gsm.HandoverComplete{Leg: gsm.LegA, MS: "MS-1", CallRef: 555})
	f.env.Run()
	if anchor.endSignal == nil {
		t.Fatal("no MAP_SEND_END_SIGNAL to the anchor")
	}

	// Voice now bridges trunk <-> radio in both directions.
	f.env.Send("ANCHOR", "MSC-1", isup.TrunkFrame{CIC: 7, CallRef: 555, Seq: 1, Payload: []byte{1}})
	f.env.Send("MS-1", "BTS-1", gsm.TCHFrame{Leg: gsm.LegUm, MS: "MS-1", CallRef: 555, Seq: 1, Payload: []byte{2}})
	f.env.Run()
	if f.ms.FramesReceived() != 1 {
		t.Fatalf("MS frames = %d", f.ms.FramesReceived())
	}
	if anchor.frames != 1 {
		t.Fatalf("anchor frames = %d", anchor.frames)
	}

	// The anchor releases the trunk: the target holds nothing.
	f.env.Send("ANCHOR", "MSC-1", isup.REL{CIC: 7, CallRef: 555, Cause: isup.CauseNormalClearing})
	f.env.Run()
	if n := f.msc.hoTarget.Open(); n != 0 {
		t.Fatalf("released: Open() = %d, want 0", n)
	}
}

type anchorStub struct {
	id        sim.NodeID
	ack       sigmap.PrepareHandoverAck
	endSignal *sigmap.SendEndSignal
	answered  bool
	frames    int
}

func (a *anchorStub) ID() sim.NodeID { return a.id }

func (a *anchorStub) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	switch m := msg.(type) {
	case sigmap.PrepareHandoverAck:
		a.ack = m
	case sigmap.SendEndSignal:
		a.endSignal = &m
		env.Send(a.id, from, sigmap.SendEndSignalAck{Invoke: m.Invoke, CallRef: m.CallRef})
	case isup.ACM:
	case isup.ANM:
		a.answered = true
	case isup.TrunkFrame:
		a.frames++
	}
}

// TestIAMForStaleMSRNRefused covers the trunk-refusal path: an IAM arrives
// for an MSRN the VLR cannot resolve (expired or never allocated). The MSC
// must release the circuit with "unallocated number" rather than leave the
// trunk hanging.
func TestIAMForStaleMSRNRefused(t *testing.T) {
	f := newGSMFixture(t, gsm.MSConfig{})
	f.register(t)

	f.env.Send("GMSC", "MSC-1", isup.IAM{
		CIC: 7, CallRef: 0x7777, Called: "886900009999",
	})
	f.env.RunUntil(f.env.Now() + 2*time.Second)

	found := false
	for _, e := range f.rec.Entries() {
		rel, isREL := e.Msg.(isup.REL)
		if isREL && e.From == "MSC-1" && rel.CallRef == 0x7777 {
			if rel.Cause != isup.CauseUnallocatedNumber {
				t.Fatalf("release cause = %v", rel.Cause)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no ISUP REL for the unresolvable MSRN")
	}
	if f.msc.ActiveCalls() != 0 {
		t.Fatalf("MSC holds %d calls after the refusal", f.msc.ActiveCalls())
	}
}

// TestMTPagingTimeoutRefusesTrunk covers the no-answer branch: the callee
// never responds to paging (its Um link is down), so after PagingTimeout
// the MSC releases the trunk with "no answer".
func TestMTPagingTimeoutRefusesTrunk(t *testing.T) {
	f := newGSMFixture(t, gsm.MSConfig{})
	f.register(t)

	// Silence the MS: paging will never be answered.
	f.env.LinkBetween("BTS-1", "MS-1").Down = true

	if _, err := f.phone.Call(f.env, testMSISDN); err != nil {
		t.Fatal(err)
	}
	f.env.RunUntil(f.env.Now() + 15*time.Second)

	rel, ok := f.rec.First(trace.Step{Msg: "ISUP_REL", From: "MSC-1"})
	if !ok || f.phone.InCall() {
		t.Fatalf("caller never released after paging timeout (REL sent %v)", ok)
	}
	if cause := rel.Msg.(isup.REL).Cause; cause != isup.CauseNoAnswer {
		t.Fatalf("release cause = %v, want no-answer", cause)
	}
	if f.trunks.InUse() != 0 {
		t.Fatal("trunk leaked after paging timeout")
	}
}
