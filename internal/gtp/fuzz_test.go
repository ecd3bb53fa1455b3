package gtp

import (
	"reflect"
	"testing"

	"vgprs/internal/sim"
)

// FuzzDecode hammers Unmarshal with arbitrary bytes. The decoder must never
// panic, and any message it accepts must survive a marshal/unmarshal round
// trip unchanged — the property the SGSN's GTP retransmission path relies on
// when a request is re-encoded from its decoded form.
func FuzzDecode(f *testing.F) {
	for _, msg := range []sim.Message{
		CreatePDPRequest{
			Seq: 2, IMSI: "466920000000001", NSAPI: 5,
			QoS: SignallingQoS(), SGSN: "SGSN-1",
		},
		CreatePDPRequest{
			Seq: 3, IMSI: "466920000000002", NSAPI: 6,
			QoS: VoiceQoS(), SGSN: "SGSN-1",
			RequestedAddress: "10.1.0.9", NetworkInitiated: true,
		},
		CreatePDPResponse{Seq: 2, Cause: CauseAccepted, TID: 42, Address: "10.1.0.9", QoS: VoiceQoS()},
		DeletePDPRequest{Seq: 4, TID: 42},
		DeletePDPResponse{Seq: 4, Cause: CauseAccepted},
		TPDU{TID: 42, Payload: []byte{0x45, 0x00, 0x00, 0x1C}},
		PDUNotifyRequest{Seq: 5, IMSI: "466920000000001", Address: "10.1.0.9"},
		PDUNotifyResponse{Seq: 5, Cause: CauseAccepted},
		CreatePDPResponse{Seq: 6, Cause: CauseNoResources},
		TPDU{TID: 43},
	} {
		b, err := Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x1E})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := Unmarshal(b)
		if err != nil {
			return
		}
		out, err := Marshal(msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-marshal: %v", msg, err)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled %T does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("round trip changed message:\n got %#v\nwant %#v", back, msg)
		}
	})
}
