package ipnet

import (
	"net/netip"
	"testing"
)

// FuzzPorts holds Ports to Unmarshal on every input: both accept or both
// reject it, and on acceptance Ports reads the ports Unmarshal decodes.
// The SGSN's media fast path routes on Ports, so a packet the two judged
// differently would take a path a decoded packet would not. The committed
// corpus holds the RAS, Q.931 and RTP packets a talking vGPRS world sends.
func FuzzPorts(f *testing.F) {
	v4, v6 := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1")
	for _, p := range []Packet{
		{Src: v4, Dst: v4, Proto: ProtoUDP, SrcPort: PortRTP, DstPort: 4000, Payload: []byte{1, 2, 3}},
		{Src: v6, Dst: v4, Proto: ProtoTCP, SrcPort: 1, DstPort: PortQ931},
		{},
	} {
		f.Add(p.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{4, 10, 0, 0})                   // address cut short
	f.Add([]byte{5, 0, 0, 0, 0, 0})              // address length 5
	f.Add([]byte{0, 0, 17, 0, 1, 0, 2, 0, 0, 9}) // a trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		src, dst, ok := Ports(b)
		p, err := Unmarshal(b)
		if ok != (err == nil) {
			t.Fatalf("Ports ok = %v, Unmarshal error = %v", ok, err)
		}
		if ok && (src != p.SrcPort || dst != p.DstPort) {
			t.Fatalf("Ports = %d, %d; Unmarshal = %d, %d", src, dst, p.SrcPort, p.DstPort)
		}
	})
}
