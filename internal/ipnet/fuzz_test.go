package ipnet

import (
	"bytes"
	"net/netip"
	"testing"
)

// FuzzPeek holds Peek to Unmarshal on every input: both accept or both
// reject it, and on acceptance Peek reads the destination, ports and
// payload Unmarshal decodes. The SGSN and GGSN relay on Peek and the VMSC
// reads speech through it, so a packet the two judged differently would
// take a path a decoded packet would not. The committed corpus holds the
// RAS, Q.931 and RTP packets a talking vGPRS world sends.
func FuzzPeek(f *testing.F) {
	v4, v6 := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1")
	for _, p := range []Packet{
		{Src: v4, Dst: v4, Proto: ProtoUDP, SrcPort: PortRTP, DstPort: 4000, Payload: []byte{1, 2, 3}},
		{Src: v6, Dst: v4, Proto: ProtoTCP, SrcPort: 1, DstPort: PortQ931},
		{Src: v4, Dst: v6, Proto: ProtoUDP, SrcPort: 7, DstPort: PortRTP, Payload: []byte{9}},
		{},
	} {
		f.Add(p.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{4, 10, 0, 0})                   // address cut short
	f.Add([]byte{5, 0, 0, 0, 0, 0})              // address length 5
	f.Add([]byte{0, 0, 17, 0, 1, 0, 2, 0, 0, 9}) // a trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, ok := Peek(b)
		p, err := Unmarshal(b)
		if ok != (err == nil) {
			t.Fatalf("Peek ok = %v, Unmarshal error = %v", ok, err)
		}
		if !ok {
			return
		}
		if h.Dst != p.Dst || h.SrcPort != p.SrcPort || h.DstPort != p.DstPort {
			t.Fatalf("Peek = %v %d->%d; Unmarshal = %v %d->%d", h.Dst, h.SrcPort, h.DstPort, p.Dst, p.SrcPort, p.DstPort)
		}
		if !bytes.Equal(payload, p.Payload) {
			t.Fatalf("Peek payload %x; Unmarshal payload %x", payload, p.Payload)
		}
	})
}
