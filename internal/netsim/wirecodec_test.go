package netsim

import (
	"reflect"
	"testing"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/rtp"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// TestEveryTracedMessageRoundTripsItsCodec drives a full network lifecycle
// (registration, MO call, MT call, clearing) and then pushes every message
// the trace recorded through its protocol's wire codec, requiring an exact
// round trip. Unlike the per-package codec tests, this validates the codecs
// against the real message population the procedures generate.
func TestEveryTracedMessageRoundTripsItsCodec(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 11, NumMS: 2, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if err := ms.Hangup(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)

	checked := map[string]int{}
	uncodec := map[string]int{}
	totalBytes := 0
	for _, e := range n.Rec.Entries() {
		family, ok := roundTripMessage(t, e.Msg)
		if !ok {
			uncodec[e.Msg.Name()]++
			continue
		}
		checked[family]++
		// The non-test WireSize dispatch must agree with the test's.
		size, sizeFamily, sized := WireSize(e.Msg)
		if !sized || sizeFamily != family && !(family == "RTP" && sizeFamily == "IP") {
			t.Fatalf("WireSize disagrees for %s: %q vs %q", e.Msg.Name(), sizeFamily, family)
		}
		totalBytes += size
	}
	if totalBytes == 0 {
		t.Fatal("WireSize measured nothing")
	}
	t.Logf("total wire bytes across the lifecycle: %d", totalBytes)
	// Every protocol family must have been exercised.
	for _, family := range []string{"MAP", "Q.931", "RAS", "GTP", "Gb", "GMM", "GSM", "IP", "RTP"} {
		if checked[family] == 0 {
			t.Errorf("no %s messages round-tripped (trace families: %v)", family, checked)
		}
	}
	t.Logf("round-tripped by family: %v", checked)
	if len(uncodec) > 0 {
		t.Errorf("message types without a wire codec: %v", uncodec)
	}
}

// roundTripMessage encodes and decodes msg through its codec, failing the
// test on mismatch. It reports the codec family used, or false when the
// message type has no wire codec (the radio-interface L3 messages, whose
// channel binding this simulation models structurally).
func roundTripMessage(t *testing.T, msg sim.Message) (string, bool) {
	t.Helper()
	requireEqual := func(family string, got sim.Message, err error) (string, bool) {
		if err != nil {
			t.Fatalf("%s round trip of %s: %v", family, msg.Name(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("%s round trip mismatch for %s:\n in: %#v\nout: %#v",
				family, msg.Name(), msg, got)
		}
		return family, true
	}
	switch m := msg.(type) {
	case sigmap.UpdateLocationArea, sigmap.UpdateLocationAreaAck,
		sigmap.UpdateLocation, sigmap.UpdateLocationAck,
		sigmap.InsertSubscriberData, sigmap.InsertSubscriberDataAck,
		sigmap.SendAuthenticationInfo, sigmap.SendAuthenticationInfoAck,
		sigmap.Authenticate, sigmap.AuthenticateAck,
		sigmap.SetCipherMode, sigmap.SetCipherModeAck,
		sigmap.SendInfoForOutgoingCall, sigmap.SendInfoForOutgoingCallAck,
		sigmap.SendRoutingInformation, sigmap.SendRoutingInformationAck,
		sigmap.ProvideRoamingNumber, sigmap.ProvideRoamingNumberAck,
		sigmap.SendInfoForIncomingCall, sigmap.SendInfoForIncomingCallAck,
		sigmap.SendRoutingInfoForGPRS, sigmap.SendRoutingInfoForGPRSAck,
		sigmap.UpdateGPRSLocation, sigmap.UpdateGPRSLocationAck,
		sigmap.PrepareHandover, sigmap.PrepareHandoverAck,
		sigmap.PrepareSubsequentHandover, sigmap.PrepareSubsequentHandoverAck,
		sigmap.SendEndSignal, sigmap.SendEndSignalAck,
		sigmap.CancelLocation, sigmap.CancelLocationAck,
		sigmap.SendIMSI, sigmap.SendIMSIAck:
		b, err := sigmap.Marshal(msg)
		if err != nil {
			t.Fatalf("MAP marshal %s: %v", msg.Name(), err)
		}
		got, err := sigmap.Unmarshal(b)
		return requireEqual("MAP", got, err)
	case q931.Setup, q931.CallProceeding, q931.Alerting, q931.Connect,
		q931.ConnectAck, q931.ReleaseComplete:
		b, err := q931.Marshal(msg)
		if err != nil {
			t.Fatalf("Q.931 marshal %s: %v", msg.Name(), err)
		}
		got, err := q931.Unmarshal(b)
		return requireEqual("Q.931", got, err)
	case isup.IAM, isup.ACM, isup.ANM, isup.REL, isup.RLC:
		b, err := isup.Marshal(msg)
		if err != nil {
			t.Fatalf("ISUP marshal %s: %v", msg.Name(), err)
		}
		got, err := isup.Unmarshal(b)
		return requireEqual("ISUP", got, err)
	case gtp.CreatePDPRequest, gtp.CreatePDPResponse,
		gtp.DeletePDPRequest, gtp.DeletePDPResponse,
		gtp.PDUNotifyRequest, gtp.PDUNotifyResponse, gtp.TPDU:
		b, err := gtp.Marshal(msg)
		if err != nil {
			t.Fatalf("GTP marshal %s: %v", msg.Name(), err)
		}
		got, err := gtp.Unmarshal(b)
		return requireEqual("GTP", got, err)
	case gb.ULUnitdata, gb.DLUnitdata:
		b, err := gb.Marshal(msg)
		if err != nil {
			t.Fatalf("Gb marshal %s: %v", msg.Name(), err)
		}
		got, err := gb.Unmarshal(b)
		return requireEqual("Gb", got, err)
	// The media fast path traces reusable pointer messages; round-trip
	// their (current) contents through the value codecs.
	case *gtp.TPDU:
		return roundTripMessage(t, *m)
	case *gb.ULUnitdata:
		return roundTripMessage(t, *m)
	case *gb.DLUnitdata:
		return roundTripMessage(t, *m)
	case ipnet.Packet:
		got, err := ipnet.Unmarshal(m.Marshal())
		if err != nil {
			t.Fatalf("IP round trip: %v", err)
		}
		// Packet equality: payload slices compare by content.
		if got.Src != m.Src || got.Dst != m.Dst || got.Proto != m.Proto ||
			got.SrcPort != m.SrcPort || got.DstPort != m.DstPort ||
			string(got.Payload) != string(m.Payload) {
			t.Fatalf("IP round trip mismatch: %+v vs %+v", m, got)
		}
		// Classify RTP-bearing packets as the RTP family too so the
		// family coverage check sees them.
		if m.DstPort == ipnet.PortRTP || m.SrcPort == ipnet.PortRTP {
			if _, err := rtp.Unmarshal(m.Payload); err == nil {
				return "RTP", true
			}
		}
		return "IP", true
	// RAS and GMM/SM messages appear in the trace as logical arrows
	// (their bytes ride in IP packets / LLC PDUs); round-trip them
	// through their codecs too.
	case h323.RRQ, h323.RCF, h323.RRJ, h323.URQ, h323.UCF,
		h323.ARQ, h323.ACF, h323.ARJ, h323.DRQ, h323.DCF,
		h323.LRQ, h323.LCF, h323.LRJ:
		b, err := h323.MarshalRAS(msg)
		if err != nil {
			t.Fatalf("RAS marshal %s: %v", msg.Name(), err)
		}
		got, err := h323.UnmarshalRAS(b)
		return requireEqual("RAS", got, err)
	case gprs.AttachRequest, gprs.AttachAccept, gprs.AttachReject,
		gprs.DetachRequest, gprs.DetachAccept,
		gprs.ActivatePDPRequest, gprs.ActivatePDPAccept, gprs.ActivatePDPReject,
		gprs.DeactivatePDPRequest, gprs.DeactivatePDPAccept,
		gprs.RequestPDPActivation:
		b, err := gprs.MarshalSM(msg)
		if err != nil {
			t.Fatalf("GMM marshal %s: %v", msg.Name(), err)
		}
		got, err := gprs.UnmarshalSM(b)
		return requireEqual("GMM", got, err)
	case gsm.ChannelRequest, gsm.ImmediateAssignment, gsm.LocationUpdate,
		gsm.LocationUpdateAccept, gsm.LocationUpdateReject,
		gsm.AuthRequest, gsm.AuthResponse,
		gsm.CipherModeCommand, gsm.CipherModeComplete,
		gsm.Setup, gsm.CallConfirmed, gsm.Alerting, gsm.Connect,
		gsm.Disconnect, gsm.Release, gsm.ReleaseComplete,
		gsm.Paging, gsm.PagingResponse, gsm.TCHFrame,
		gsm.MeasurementReport, gsm.HandoverRequired, gsm.HandoverCommand,
		gsm.HandoverAccess, gsm.HandoverComplete, gsm.LLCFrame:
		b, err := gsm.Marshal(msg)
		if err != nil {
			t.Fatalf("GSM L3 marshal %s: %v", msg.Name(), err)
		}
		got, err := gsm.Unmarshal(b)
		return requireEqual("GSM", got, err)
	default:
		return "", false
	}
}
