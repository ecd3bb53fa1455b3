package ipnet

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Src: MustAddr("10.1.2.3"), Dst: MustAddr("192.168.0.9"),
		Proto: ProtoTCP, SrcPort: 40000, DstPort: PortQ931,
		Payload: []byte("setup"),
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto ||
		got.SrcPort != p.SrcPort || got.DstPort != p.DstPort ||
		!bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("round trip %+v -> %+v", p, got)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	prop := func(a, b [4]byte, sp, dp uint16, tcp bool, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		proto := ProtoUDP
		if tcp {
			proto = ProtoTCP
		}
		p := Packet{
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
			Proto: proto, SrcPort: sp, DstPort: dp, Payload: payload,
		}
		got, err := Unmarshal(p.Marshal())
		return err == nil && got.Src == p.Src && got.Dst == p.Dst &&
			got.SrcPort == sp && got.DstPort == dp && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{4, 1}); !errors.Is(err, ErrBadPacket) {
		t.Errorf("short err = %v", err)
	}
	p := Packet{Src: MustAddr("1.2.3.4"), Dst: MustAddr("5.6.7.8"), Proto: ProtoUDP}
	if _, err := Unmarshal(append(p.Marshal(), 0)); !errors.Is(err, ErrBadPacket) {
		t.Errorf("trailing err = %v", err)
	}
}

func TestName(t *testing.T) {
	p := Packet{Proto: ProtoUDP, SrcPort: 1719, DstPort: 1719}
	if p.Name() != "IP/UDP:1719->1719" {
		t.Fatalf("Name = %q", p.Name())
	}
	if Proto(3).String() != "Proto(3)" {
		t.Fatal("unknown proto string")
	}
}

func TestReply(t *testing.T) {
	p := Packet{
		Src: MustAddr("10.0.0.1"), Dst: MustAddr("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 1111, DstPort: 1720,
	}
	r := p.Reply([]byte("ok"))
	if r.Src != p.Dst || r.Dst != p.Src || r.SrcPort != p.DstPort || r.DstPort != p.SrcPort {
		t.Fatalf("reply = %+v", r)
	}
	if string(r.Payload) != "ok" || r.Proto != ProtoTCP {
		t.Fatalf("reply payload/proto = %+v", r)
	}
}

func TestPoolAllocateRelease(t *testing.T) {
	pool, err := NewPoolSize("10.9.8.0", 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("duplicate allocation")
	}
	if a1.String() != "10.9.8.1" {
		t.Fatalf("first address = %s", a1)
	}
	pool.Release(a1)
	a3, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 {
		t.Fatalf("expected reuse of %s, got %s", a1, a3)
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool, err := NewPoolSize("10.0.0.0", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 254; i++ {
		if _, err := pool.Allocate(); err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
	}
	if _, err := pool.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestPoolReleaseForeignAddrNoop(t *testing.T) {
	pool, err := NewPoolSize("10.0.0.0", 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(MustAddr("1.1.1.1"))
	if n := drain(pool); n != 254 {
		t.Fatalf("foreign release corrupted pool: %d of 254 addresses left", n)
	}
}

// drain allocates until the pool is exhausted and returns how many
// addresses it handed out: the pool's free count, read through Allocate.
func drain(p *Pool) int {
	n := 0
	for {
		if _, err := p.Allocate(); err != nil {
			return n
		}
		n++
	}
}

func TestNewPoolErrors(t *testing.T) {
	if _, err := NewPoolSize("not-an-ip", 0); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if _, err := NewPoolSize("::1", 0); err == nil {
		t.Fatal("IPv6 prefix accepted")
	}
}

func TestPoolNeverDuplicatesProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		pool, err := NewPoolSize("10.5.5.0", 0)
		if err != nil {
			return false
		}
		var held []netip.Addr
		seen := make(map[netip.Addr]bool)
		for _, alloc := range ops {
			if alloc {
				a, err := pool.Allocate()
				if err != nil {
					continue
				}
				if seen[a] {
					return false // duplicate while held
				}
				seen[a] = true
				held = append(held, a)
			} else if len(held) > 0 {
				a := held[len(held)-1]
				held = held[:len(held)-1]
				pool.Release(a)
				delete(seen, a)
			}
		}
		return drain(pool) == 254-len(held)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMustAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustAddr("nope")
}
