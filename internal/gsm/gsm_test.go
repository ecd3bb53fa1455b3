package gsm

import (
	"testing"
	"time"

	"vgprs/internal/codec"
	"vgprs/internal/gb"
	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

const (
	testIMSI   = gsmid.IMSI("466920000000001")
	testMSISDN = gsmid.MSISDN("886912345678")
)

var testKi = [16]byte{0xAA, 0xBB}

// scriptMSC is a minimal MSC that exercises the radio-access side: it runs
// authentication + ciphering + location-update accept, answers MO setups
// with Alerting/Connect, and clears calls.
type scriptMSC struct {
	id       sim.NodeID
	bsc      sim.NodeID
	got      []sim.Message
	tmsiSeq  uint32
	reject   bool
	frames   int
	answerMO bool
}

func (m *scriptMSC) ID() sim.NodeID { return m.id }

func (m *scriptMSC) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	m.got = append(m.got, msg)
	switch t := msg.(type) {
	case LocationUpdate:
		if m.reject {
			env.Send(m.id, m.bsc, LocationUpdateReject{Leg: LegA, MS: t.MS, Cause: 1})
			return
		}
		env.Send(m.id, m.bsc, AuthRequest{Leg: LegA, MS: t.MS, RAND: [16]byte{1}})
	case AuthResponse:
		env.Send(m.id, m.bsc, CipherModeCommand{Leg: LegA, MS: t.MS})
	case CipherModeComplete:
		m.tmsiSeq++
		env.Send(m.id, m.bsc, LocationUpdateAccept{Leg: LegA, MS: t.MS, TMSI: gsmid.TMSI(m.tmsiSeq)})
	case Setup:
		if m.answerMO {
			env.Send(m.id, m.bsc, Alerting{Leg: LegA, MS: t.MS, CallRef: t.CallRef})
			env.Send(m.id, m.bsc, Connect{Leg: LegA, MS: t.MS, CallRef: t.CallRef})
		}
	case Disconnect:
		env.Send(m.id, m.bsc, Release{Leg: LegA, MS: t.MS, CallRef: t.CallRef})
	case TCHFrame:
		m.frames++
	}
}

func (m *scriptMSC) count(name string) int {
	n := 0
	for _, g := range m.got {
		if g.Name() == name {
			n++
		}
	}
	return n
}

type radioFixture struct {
	env *sim.Env
	ms  *MS
	bts *BTS
	bsc *BSC
	msc *scriptMSC
	rec *trace.Recorder
}

// setupRef is the call reference on the MS's Um Setup.
func (f *radioFixture) setupRef(t *testing.T) uint32 {
	t.Helper()
	e, ok := f.rec.First(trace.Step{Msg: "Um_Setup"})
	if !ok {
		t.Fatal("the MS sent no Setup")
	}
	return e.Msg.(Setup).CallRef
}

func newRadioFixture(t *testing.T, msCfg MSConfig, bscCfg BSCConfig) *radioFixture {
	t.Helper()
	env := sim.NewEnv(1)
	rec := trace.NewRecorder()
	env.SetTracer(rec)

	if msCfg.ID == "" {
		msCfg.ID = "MS-1"
	}
	msCfg.IMSI = testIMSI
	msCfg.MSISDN = testMSISDN
	msCfg.Ki = testKi
	msCfg.BTS = "BTS-1"

	if bscCfg.ID == "" {
		bscCfg.ID = "BSC-1"
	}
	bscCfg.MSC = "MSC-1"
	bscCfg.BTSs = []sim.NodeID{"BTS-1"}

	ms := NewMS(msCfg)
	bts := NewBTS(BTSConfig{ID: "BTS-1", BSC: "BSC-1"})
	bsc := NewBSC(bscCfg)
	msc := &scriptMSC{id: "MSC-1", bsc: "BSC-1", answerMO: true}

	env.AddNode(ms)
	env.AddNode(bts)
	env.AddNode(bsc)
	env.AddNode(msc)
	env.Connect("MS-1", "BTS-1", "Um", time.Millisecond)
	env.Connect("BTS-1", "BSC-1", "Abis", time.Millisecond)
	env.Connect("BSC-1", "MSC-1", "A", time.Millisecond)

	return &radioFixture{env: env, ms: ms, bts: bts, bsc: bsc, msc: msc, rec: rec}
}

func TestRegistrationFlow(t *testing.T) {
	var gotTMSI gsmid.TMSI
	f := newRadioFixture(t, MSConfig{
		Hooks: MSHooks{OnRegistered: func(tmsi gsmid.TMSI) { gotTMSI = tmsi }},
	}, BSCConfig{})
	f.ms.PowerOn(f.env)
	f.env.Run()

	if f.ms.State() != MSIdle {
		t.Fatalf("state = %v", f.ms.State())
	}
	if gotTMSI == 0 {
		t.Fatal("OnRegistered not fired")
	}
	if tmsi, ok := f.ms.TMSI(); !ok || tmsi != gotTMSI {
		t.Fatalf("TMSI = %v/%v", tmsi, ok)
	}
	// Channel released after registration.
	if f.bsc.ChannelsInUse() != 0 {
		t.Fatalf("channels in use = %d", f.bsc.ChannelsInUse())
	}
	// The trace follows the paper's naming hop by hop.
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Channel_Request", From: "MS-1", To: "BTS-1", Iface: "Um"},
		{Msg: "Abis_Channel_Required", From: "BTS-1", To: "BSC-1", Iface: "Abis"},
		{Msg: "Um_Immediate_Assignment", To: "MS-1"},
		{Msg: "Um_Location_Update_Request", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "1.1"},
		{Msg: "Abis_Location_Update", From: "BTS-1", To: "BSC-1", Iface: "Abis", Note: "1.1"},
		{Msg: "A_Location_Update", From: "BSC-1", To: "MSC-1", Iface: "A", Note: "1.1"},
		{Msg: "Um_Auth_Request", To: "MS-1"},
		{Msg: "A_Auth_Response", To: "MSC-1"},
		{Msg: "Um_Cipher_Mode_Command", To: "MS-1"},
		{Msg: "A_Cipher_Mode_Complete", To: "MSC-1"},
		{Msg: "Um_Location_Update_Accept", To: "MS-1", Note: "1.6"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationReject(t *testing.T) {
	failed := false
	f := newRadioFixture(t, MSConfig{
		Hooks: MSHooks{OnRegisterFailed: func() { failed = true }},
	}, BSCConfig{})
	f.msc.reject = true
	f.ms.PowerOn(f.env)
	f.env.Run()
	if !failed || f.ms.State() != MSDetached {
		t.Fatalf("failed=%v state=%v", failed, f.ms.State())
	}
	if f.bsc.ChannelsInUse() != 0 {
		t.Fatal("channel leaked after reject")
	}
}

func TestChannelCongestionBlocks(t *testing.T) {
	f := newRadioFixture(t, MSConfig{}, BSCConfig{TCHCapacity: 1})
	blocked := false
	ms2 := NewMS(MSConfig{
		ID: "MS-2", IMSI: "466920000000002", MSISDN: "886912345679",
		Ki: testKi, BTS: "BTS-1",
		Hooks: MSHooks{OnBlocked: func() { blocked = true }},
	})
	f.env.AddNode(ms2)
	f.env.Connect("MS-2", "BTS-1", "Um", time.Millisecond)

	// Occupy the only channel with a call in progress (MS-1 dials but the
	// far end never answers, so the channel stays held).
	f.msc.answerMO = false
	f.ms.PowerOn(f.env)
	f.env.Run()
	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()

	ms2.PowerOn(f.env)
	f.env.Run()
	if !blocked {
		t.Fatal("second MS was not blocked under TCHCapacity=1")
	}
	// The MS retries its random access with backoff before giving up, so
	// the BSC refuses more than once; the MS ends up detached.
	if f.bsc.Blocked() == 0 {
		t.Fatalf("Blocked = %d", f.bsc.Blocked())
	}
	if ms2.State() != MSDetached {
		t.Fatalf("blocked MS state = %v, want detached after retry budget", ms2.State())
	}
}

func TestMobileOriginatedCallAndClearing(t *testing.T) {
	var events []string
	f := newRadioFixture(t, MSConfig{
		Talk: true,
		Hooks: MSHooks{
			OnAlerting:  func(uint32) { events = append(events, "alerting") },
			OnConnected: func(uint32) { events = append(events, "connected") },
			OnReleased:  func(uint32) { events = append(events, "released") },
		},
	}, BSCConfig{})
	f.ms.PowerOn(f.env)
	f.env.Run()

	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	// Let the call run for half a second of conversation.
	f.env.RunUntil(f.env.Now() + 500*time.Millisecond)
	if f.ms.State() != MSInCall {
		t.Fatalf("state = %v", f.ms.State())
	}
	if f.msc.frames == 0 {
		t.Fatal("no uplink speech frames reached the MSC")
	}
	if err := f.ms.Hangup(f.env); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	if f.ms.State() != MSIdle {
		t.Fatalf("state after hangup = %v", f.ms.State())
	}
	if f.bsc.ChannelsInUse() != 0 {
		t.Fatal("channel leaked after clearing")
	}
	want := []string{"alerting", "connected", "released"}
	if len(events) != 3 || events[0] != want[0] || events[1] != want[1] || events[2] != want[2] {
		t.Fatalf("events = %v", events)
	}
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "Um_Setup", From: "MS-1", Note: "2.1"},
		{Msg: "A_Setup", To: "MSC-1", Note: "2.1"},
		{Msg: "Um_Alerting", To: "MS-1", Note: "2.7"},
		{Msg: "Um_Connect", To: "MS-1", Note: "2.8"},
		{Msg: "Um_Disconnect", From: "MS-1", Note: "3.1"},
		{Msg: "A_Disconnect", To: "MSC-1", Note: "3.1"},
		{Msg: "Um_Release", To: "MS-1"},
		{Msg: "A_Release_Complete", To: "MSC-1"},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLateClearingDoesNotResurrectDetachedMS powers the MS off mid-call and
// then delivers the network's trailing Release (or the far party's
// Disconnect) for that call. The MS must still confirm the release so the
// network leg clears — for the call the network named — but it stays
// detached: no state change, no OnReleased.
func TestLateClearingDoesNotResurrectDetachedMS(t *testing.T) {
	for _, late := range []string{"Release", "Disconnect"} {
		t.Run(late, func(t *testing.T) {
			released := 0
			f := newRadioFixture(t, MSConfig{
				Hooks: MSHooks{OnReleased: func(uint32) { released++ }},
			}, BSCConfig{})
			f.ms.PowerOn(f.env)
			f.env.Run()
			if err := f.ms.Dial(f.env, "886955555555"); err != nil {
				t.Fatal(err)
			}
			f.env.RunUntil(f.env.Now() + 500*time.Millisecond)
			if f.ms.State() != MSInCall {
				t.Fatalf("state = %v", f.ms.State())
			}
			ref := f.setupRef(t)
			if err := f.ms.PowerOff(f.env); err != nil {
				t.Fatal(err)
			}
			f.env.Run()

			var msg sim.Message = Release{Leg: LegUm, MS: "MS-1", CallRef: ref}
			if late == "Disconnect" {
				msg = Disconnect{Leg: LegUm, MS: "MS-1", CallRef: ref}
			}
			before := len(f.rec.Entries())
			f.env.Send("BTS-1", "MS-1", msg)
			f.env.Run()

			if f.ms.State() != MSDetached {
				t.Fatalf("late %s moved a powered-off MS to %v", late, f.ms.State())
			}
			if released != 0 {
				t.Fatalf("OnReleased fired %d times on a detached MS", released)
			}
			confirmed := false
			for _, e := range f.rec.Entries()[before:] {
				if e.From == "MS-1" && e.Msg.Name() == "Um_Release_Complete" {
					if got := e.Msg.(ReleaseComplete).CallRef; got != ref {
						t.Fatalf("ReleaseComplete for call %d, want %d", got, ref)
					}
					confirmed = true
				}
			}
			if !confirmed {
				t.Fatal("detached MS did not answer with ReleaseComplete")
			}
		})
	}
}

func TestMobileTerminatedCall(t *testing.T) {
	incoming := false
	f := newRadioFixture(t, MSConfig{
		AutoAnswer:  true,
		AnswerDelay: 50 * time.Millisecond,
		Hooks:       MSHooks{OnIncoming: func(uint32, gsmid.MSISDN) { incoming = true }},
	}, BSCConfig{})
	f.ms.PowerOn(f.env)
	f.env.Run()

	// The MSC pages and, on paging response, sends the MT Setup.
	pageAndSetup := func(env *sim.Env, ms sim.NodeID) {
		env.Send("MSC-1", "BSC-1", Paging{Leg: LegA, MS: ms, Identity: gsmid.ByTMSI(1)})
	}
	origReceive := f.msc.got
	_ = origReceive
	pageAndSetup(f.env, "MS-1")
	f.env.Run()
	if f.msc.count("A_Paging_Response") != 1 {
		t.Fatalf("paging responses = %d", f.msc.count("A_Paging_Response"))
	}
	f.env.Send("MSC-1", "BSC-1", Setup{Leg: LegA, MS: "MS-1", CallRef: 77, Calling: "886955555555"})
	f.env.Run()

	if !incoming {
		t.Fatal("OnIncoming not fired")
	}
	if f.ms.State() != MSInCall {
		t.Fatalf("state = %v", f.ms.State())
	}
	if f.msc.count("A_Alerting") != 1 || f.msc.count("A_Connect") != 1 {
		t.Fatalf("alerting=%d connect=%d", f.msc.count("A_Alerting"), f.msc.count("A_Connect"))
	}
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "A_Paging", From: "MSC-1", Note: "4.4"},
		{Msg: "Abis_Paging", From: "BSC-1", Note: "4.4"},
		{Msg: "Um_Paging_Request", To: "MS-1", Note: "4.4"},
		{Msg: "Um_Paging_Response", From: "MS-1", Note: "4.5"},
		{Msg: "Um_Setup", To: "MS-1", Note: "4.5"},
		{Msg: "Um_Alerting", From: "MS-1", Note: "4.6"},
		{Msg: "Um_Connect", From: "MS-1", Note: "4.7"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDownlinkSpeechReachesMS(t *testing.T) {
	var rx int
	f := newRadioFixture(t, MSConfig{
		Hooks: MSHooks{OnFrame: func(TCHFrame) { rx++ }},
	}, BSCConfig{})
	f.ms.PowerOn(f.env)
	f.env.Run()
	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()

	for i := range 5 {
		f.env.Send("MSC-1", "BSC-1", TCHFrame{
			Leg: LegA, MS: "MS-1", CallRef: 1, Seq: uint32(i), Downlink: true,
			Payload: codec.NewFrame(f.env.Now(), uint32(i)),
		})
	}
	f.env.Run()
	if rx != 5 || f.ms.FramesReceived() != 5 {
		t.Fatalf("rx = %d, FramesReceived = %d", rx, f.ms.FramesReceived())
	}
}

func TestMeasurementReportEscalation(t *testing.T) {
	local := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 1}, CI: 1}
	foreignCell := gsmid.CGI{LAI: gsmid.LAI{MCC: "466", MNC: "92", LAC: 9}, CI: 9}
	f := newRadioFixture(t, MSConfig{}, BSCConfig{LocalCells: map[gsmid.CGI]bool{local: true}})
	f.ms.PowerOn(f.env)
	f.env.Run()
	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()

	f.ms.ReportNeighbor(f.env, local)
	f.env.Run()
	if f.msc.count("A_Handover_Required") != 0 {
		t.Fatal("intra-BSC target must not escalate")
	}
	f.ms.ReportNeighbor(f.env, foreignCell)
	f.env.Run()
	if f.msc.count("A_Handover_Required") != 1 {
		t.Fatal("foreign target must escalate to the MSC")
	}
}

func TestHandoverCommandMovesMS(t *testing.T) {
	var movedTo sim.NodeID
	f := newRadioFixture(t, MSConfig{
		Hooks: MSHooks{OnHandover: func(bts sim.NodeID) { movedTo = bts }},
	}, BSCConfig{})
	// A second radio subsystem.
	bts2 := NewBTS(BTSConfig{ID: "BTS-2", BSC: "BSC-2"})
	bsc2 := NewBSC(BSCConfig{ID: "BSC-2", MSC: "MSC-2", BTSs: []sim.NodeID{"BTS-2"}})
	msc2 := &scriptMSC{id: "MSC-2", bsc: "BSC-2"}
	f.env.AddNode(bts2)
	f.env.AddNode(bsc2)
	f.env.AddNode(msc2)
	f.env.Connect("MS-1", "BTS-2", "Um", time.Millisecond)
	f.env.Connect("BTS-2", "BSC-2", "Abis", time.Millisecond)
	f.env.Connect("BSC-2", "MSC-2", "A", time.Millisecond)

	f.ms.PowerOn(f.env)
	f.env.Run()
	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()

	f.env.Send("MSC-1", "BSC-1", HandoverCommand{
		Leg: LegA, MS: "MS-1", CallRef: f.setupRef(t),
		TargetBTS: "BTS-2", Channel: 9,
	})
	f.env.Run()

	if movedTo != "BTS-2" {
		t.Fatalf("movedTo = %q", movedTo)
	}
	if msc2.count("A_Handover_Access") != 1 || msc2.count("A_Handover_Complete") != 1 {
		t.Fatalf("target MSC saw access=%d complete=%d",
			msc2.count("A_Handover_Access"), msc2.count("A_Handover_Complete"))
	}
	if f.ms.State() != MSInCall {
		t.Fatalf("state after handover = %v", f.ms.State())
	}
}

type gbStub struct {
	id  sim.NodeID
	got []sim.Message
}

func (s *gbStub) ID() sim.NodeID { return s.id }

func (s *gbStub) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	s.got = append(s.got, msg)
}

func TestPCURelaysLLCOverGb(t *testing.T) {
	f := newRadioFixture(t, MSConfig{}, BSCConfig{SGSN: "SGSN-1"})
	sgsn := &gbStub{id: "SGSN-1"}
	f.env.AddNode(sgsn)
	f.env.Connect("BSC-1", "SGSN-1", "Gb", time.Millisecond)

	tlli := gsmid.LocalTLLI(gsmid.PTMSI(0x1234))
	f.env.Send("MS-1", "BTS-1", LLCFrame{Leg: LegUm, MS: "MS-1", TLLI: tlli, Payload: []byte{9, 9}})
	f.env.Run()

	if len(sgsn.got) != 1 {
		t.Fatalf("SGSN got %d messages", len(sgsn.got))
	}
	ul, ok := sgsn.got[0].(gb.ULUnitdata)
	if !ok || ul.TLLI != tlli || string(ul.PDU) != "\x09\x09" {
		t.Fatalf("UL = %#v", sgsn.got[0])
	}

	// Downlink back through the PCU to the MS.
	var rxDL []byte
	f.env.Send("SGSN-1", "BSC-1", gb.DLUnitdata{TLLI: tlli, MS: "MS-1", PDU: []byte{7}})
	f.env.Run()
	_ = rxDL
	// The MS silently ignores LLC frames (it is a plain GSM MS); what
	// matters is that the PCU routed the downlink frame into the right
	// cell and to the right MS.
	if _, err := f.rec.ExpectFlow(trace.Flow{
		{Msg: "Gb_DL_UNITDATA", From: "SGSN-1", To: "BSC-1", Iface: "Gb"},
		{Msg: "Abis_LLC_Frame", From: "BSC-1", To: "BTS-1"},
		{Msg: "Um_LLC_Frame", From: "BTS-1", To: "MS-1"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWithLegForeignMessageUnchanged(t *testing.T) {
	m := foreignMsg{}
	if WithLeg(m, LegA) != m {
		t.Fatal("foreign message must pass through unchanged")
	}
	if TargetMS(m) != "" {
		t.Fatal("foreign message has no MS")
	}
}

// TestSpeechPayloadRoundTrip: downlink frames carry their generation time
// and sequence number (codec.NewFrame) and the MS reads both back — its
// media report sees every frame, none missing from the sequence span, each
// one three 1 ms hops old.
func TestSpeechPayloadRoundTrip(t *testing.T) {
	f := newRadioFixture(t, MSConfig{}, BSCConfig{})
	f.ms.PowerOn(f.env)
	f.env.Run()
	if err := f.ms.Dial(f.env, "886955555555"); err != nil {
		t.Fatal(err)
	}
	f.env.Run()
	for i := range 5 {
		f.env.Send("MSC-1", "BSC-1", TCHFrame{
			Leg: LegA, MS: "MS-1", CallRef: 1, Seq: uint32(i), Downlink: true,
			Payload: codec.NewFrame(f.env.Now(), uint32(i)),
		})
	}
	f.env.Run()
	r := f.ms.MediaReport()
	if r.Frames != 5 || r.Expected != 5 || r.MeanDelay != 3*time.Millisecond || r.MaxDelay != 3*time.Millisecond {
		t.Fatalf("media report = %+v, want 5 of 5 frames at 3ms", r)
	}
}

func TestDialWhileDetachedFails(t *testing.T) {
	f := newRadioFixture(t, MSConfig{}, BSCConfig{})
	if err := f.ms.Dial(f.env, "886955555555"); err == nil {
		t.Fatal("Dial before registration must fail")
	}
	if err := f.ms.Hangup(f.env); err == nil {
		t.Fatal("Hangup while idle must fail")
	}
}

func TestStateStrings(t *testing.T) {
	if MSIdle.String() != "idle" || MSState(99).String() != "MSState(99)" {
		t.Fatal("state strings wrong")
	}
	if LegUm.String() != "Um" || Leg(9).String() != "Leg(9)" {
		t.Fatal("leg strings wrong")
	}
}

type foreignMsg struct{}

func (foreignMsg) Name() string { return "FOREIGN" }

// TestDTXSuppressesSilence checks that discontinuous transmission gates the
// uplink frame stream with the Brady talk-spurt model: substantially fewer
// frames than continuous transmission, but not zero.
func TestDTXSuppressesSilence(t *testing.T) {
	run := func(dtx bool) int {
		f := newRadioFixture(t, MSConfig{Talk: true, DTX: dtx}, BSCConfig{})
		f.ms.PowerOn(f.env)
		f.env.Run()
		if err := f.ms.Dial(f.env, "886955555555"); err != nil {
			t.Fatal(err)
		}
		f.env.RunUntil(f.env.Now() + 30*time.Second)
		return f.msc.frames // uplink frames that reached the MSC (lossless)
	}
	continuous := run(false)
	gated := run(true)
	if gated == 0 {
		t.Fatal("DTX suppressed everything")
	}
	ratio := float64(gated) / float64(continuous)
	// The Brady model's long-run activity is ~0.43.
	if ratio < 0.2 || ratio > 0.7 {
		t.Fatalf("DTX activity ratio = %.2f (sent %d of %d)", ratio, gated, continuous)
	}
}
