package gtp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
)

const testIMSI = gsmid.IMSI("466920000000001")

func TestMakeTID(t *testing.T) {
	tid := MakeTID(testIMSI, 5)
	if tid.NSAPI() != 5 {
		t.Fatalf("NSAPI = %d", tid.NSAPI())
	}
	// Distinct NSAPIs on the same IMSI give distinct tunnels — the
	// signalling and voice contexts of one vGPRS MS must not collide.
	if MakeTID(testIMSI, 5) == MakeTID(testIMSI, 6) {
		t.Fatal("NSAPI must distinguish tunnels")
	}
	if MakeTID(testIMSI, 5) != MakeTID(testIMSI, 5) {
		t.Fatal("TID derivation must be deterministic")
	}
	if MakeTID("466920000000002", 5) == tid {
		t.Fatal("different IMSIs must give different TIDs")
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	tid := MakeTID(testIMSI, 1)
	msgs := []sim.Message{
		CreatePDPRequest{
			Seq: 10, IMSI: testIMSI, NSAPI: 5, QoS: SignallingQoS(),
			SGSN: "SGSN-1", RequestedAddress: "", NetworkInitiated: false,
		},
		CreatePDPRequest{
			Seq: 11, IMSI: testIMSI, NSAPI: 6, QoS: VoiceQoS(),
			SGSN: "SGSN-1", RequestedAddress: "10.1.1.9", NetworkInitiated: true,
		},
		CreatePDPResponse{Seq: 10, Cause: CauseAccepted, TID: tid, Address: "10.1.1.5"},
		CreatePDPResponse{Seq: 12, Cause: CauseNoResources},
		DeletePDPRequest{Seq: 13, TID: tid},
		DeletePDPResponse{Seq: 13, Cause: CauseAccepted},
		TPDU{TID: tid, Payload: []byte("encapsulated-ip-packet")},
		PDUNotifyRequest{Seq: 14, IMSI: testIMSI, Address: "10.1.1.9"},
		PDUNotifyResponse{Seq: 14, Cause: CauseAccepted},
	}
	for _, m := range msgs {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip:\n in: %#v\nout: %#v", m, got)
		}
	}
}

func TestHeaderIsTwentyBytes(t *testing.T) {
	b, err := Marshal(TPDU{TID: MakeTID(testIMSI, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 20 {
		t.Fatalf("empty-payload GTP message is %d bytes, want 20 (GTPv0 header)", len(b))
	}
	// Version bits (top 3 of octet 1) must be zero for GTPv0.
	if b[0]>>5 != 0 {
		t.Fatalf("version bits = %d", b[0]>>5)
	}
}

func TestUnmarshalRejectsWrongVersion(t *testing.T) {
	b, err := Marshal(DeletePDPRequest{Seq: 1, TID: MakeTID(testIMSI, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b[0] |= 0x20 // version 1
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{0x1E, 1, 0}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short header err = %v", err)
	}
	b, err := Marshal(DeletePDPResponse{Seq: 1, Cause: CauseAccepted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(b, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("length mismatch err = %v", err)
	}
	// Unknown message type.
	b2, err := Marshal(DeletePDPRequest{Seq: 1, TID: MakeTID(testIMSI, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b2[1] = 99
	if _, err := Unmarshal(b2); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unknown type err = %v", err)
	}
}

func TestMarshalForeign(t *testing.T) {
	if _, err := Marshal(foreign{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQoSProfiles(t *testing.T) {
	sig := SignallingQoS()
	voice := VoiceQoS()
	if sig.Realtime {
		t.Error("signalling QoS must not be realtime")
	}
	if !voice.Realtime || voice.Precedence >= sig.Precedence {
		t.Errorf("voice QoS must be realtime and higher precedence: %+v vs %+v", voice, sig)
	}
	if !CauseAccepted.Accepted() || CauseNoResources.Accepted() {
		t.Error("Accepted() predicate wrong")
	}
}

func TestCauseStrings(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseAccepted:      "request-accepted",
		CauseNoResources:   "no-resources-available",
		CauseNotFound:      "non-existent",
		CauseSystemFailure: "system-failure",
		Cause(1):           "Cause(1)",
	} {
		if c.String() != want {
			t.Errorf("Cause(%d) = %q, want %q", uint8(c), c, want)
		}
	}
}

func TestTPDURoundTripProperty(t *testing.T) {
	prop := func(tid uint64, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		m := TPDU{TID: TID(tid), Payload: payload}
		b, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		tp, ok := got.(TPDU)
		return ok && tp.TID == m.TID && bytes.Equal(tp.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRoundTripProperty(t *testing.T) {
	prop := func(seq uint16, nsapi uint8, prec, delay uint8, kbps uint16, rt bool) bool {
		m := CreatePDPRequest{
			Seq: seq, IMSI: testIMSI, NSAPI: nsapi & 0x0F,
			QoS:  QoSProfile{Precedence: prec, DelayClass: delay, PeakThroughputKbps: kbps, Realtime: rt},
			SGSN: "SGSN-1",
		}
		b, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type foreign struct{}

func (foreign) Name() string { return "X" }
