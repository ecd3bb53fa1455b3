// Package ipnet models the IP packets that ride through the GPRS core and
// the external H.323 network: a compact (src, dst, proto, ports, payload)
// datagram with a binary codec. H.225/RAS signalling rides as TCP/UDP-like
// payloads inside these packets; RTP media rides as UDP payloads; the GGSN
// routes packets between the Gi side (H.323 network) and GTP tunnels by
// destination address (paper Fig 3, links (1)-(3) and (8)).
package ipnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strconv"

	"vgprs/internal/sim"
	"vgprs/internal/wire"
)

// ErrBadPacket is returned when a packet fails to decode.
var ErrBadPacket = errors.New("ipnet: malformed packet")

// Proto is the layer-4 protocol discriminator.
type Proto uint8

// Protocols used by the reproduction.
const (
	ProtoTCP Proto = 6  // H.225/Q.931 call signalling, RAS responses
	ProtoUDP Proto = 17 // RAS and RTP
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return "Proto(" + strconv.Itoa(int(p)) + ")"
	}
}

// Well-known ports of the H.323 suite.
const (
	PortRAS   = 1719 // H.225.0 RAS (gatekeeper discovery/registration)
	PortQ931  = 1720 // H.225.0 call signalling
	PortRTP   = 5004 // default RTP media port
	PortGTPv0 = 3386 // GTP (GSM 09.60)
)

// Packet is an IP datagram.
type Packet struct {
	Src     netip.Addr
	Dst     netip.Addr
	Proto   Proto
	SrcPort uint16
	DstPort uint16
	Payload []byte
}

// Name implements sim.Message; the name carries the protocol and ports so
// protocol-stack traces (Fig 3 validation) show the layering. Hand-rolled
// formatting: Name is called per traced message.
func (p Packet) Name() string {
	var b [32]byte
	out := append(b[:0], "IP/"...)
	out = append(out, p.Proto.String()...)
	out = append(out, ':')
	out = strconv.AppendUint(out, uint64(p.SrcPort), 10)
	out = append(out, "->"...)
	out = strconv.AppendUint(out, uint64(p.DstPort), 10)
	return string(out)
}

var _ sim.Message = Packet{}

// addrLen returns the encoded size of a length-prefixed address field.
func addrLen(a netip.Addr) int {
	switch {
	case !a.IsValid():
		return 1
	case a.Is4():
		return 5
	default:
		return 17
	}
}

// EncodedLen returns the exact size of the packet's wire form, so callers
// can size buffers without marshalling twice.
func (p Packet) EncodedLen() int {
	return addrLen(p.Src) + addrLen(p.Dst) + 5 + 2 + len(p.Payload)
}

// AppendTo appends the packet's wire form to dst and returns the extended
// slice.
func (p Packet) AppendTo(dst []byte) []byte {
	w := wire.Wrap(dst)
	w.Addr(p.Src)
	w.Addr(p.Dst)
	w.U8(uint8(p.Proto))
	w.U16(p.SrcPort)
	w.U16(p.DstPort)
	w.Bytes16(p.Payload)
	return w.Bytes()
}

// Marshal encodes the packet into an exact-size fresh buffer.
func (p Packet) Marshal() []byte {
	return p.AppendTo(make([]byte, 0, p.EncodedLen()))
}

// Unmarshal decodes a packet. The returned Payload aliases b rather than
// copying it: packets are decoded on every hop of the GPRS tunnel path, and
// the simulation's buffers are write-once (pooled writers hand out exact
// copies), so the alias is safe and saves a per-hop payload allocation.
// Callers that mutate or recycle b must copy Payload first.
func Unmarshal(b []byte) (Packet, error) {
	var r wire.Reader
	r.Reset(b)
	var p Packet
	p.Src = r.Addr()
	p.Dst = r.Addr()
	p.Proto = Proto(r.U8())
	p.SrcPort = r.U16()
	p.DstPort = r.U16()
	if n := int(r.U16()); n > 0 {
		p.Payload = r.View(n)
	}
	if err := r.Err(); err != nil {
		return Packet{}, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	if r.Remaining() != 0 {
		return Packet{}, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, r.Remaining())
	}
	return p, nil
}

// Header is what Peek reads of an encoded packet in place: the fields the
// relays route on. It is kept to 32 bytes and three fields, so the compiler
// holds it in registers rather than copying it through memory.
type Header struct {
	Dst              netip.Addr
	SrcPort, DstPort uint16
}

// IsRTP reports whether either port is the RTP port: the packet is media.
func (h Header) IsRTP() bool { return h.DstPort == PortRTP || h.SrcPort == PortRTP }

// Peek reads an encoded packet's destination and ports, and returns its
// payload, without decoding it: the source address is skipped and no
// Packet is built. The payload aliases b, as Unmarshal's does. ok is false
// exactly when Unmarshal would fail on b, so a relay that routes on the
// header (the SGSN's and GGSN's user-plane relays, the VMSC's media path)
// sees the packets Unmarshal sees.
func Peek(b []byte) (h Header, payload []byte, ok bool) {
	// Src and Dst: a length byte of 0, 4 or 16, then the address.
	if len(b) == 0 || !addrLenOK(b[0]) {
		return Header{}, nil, false
	}
	d := 1 + int(b[0])
	if len(b) <= d || !addrLenOK(b[d]) {
		return Header{}, nil, false
	}
	// Proto, SrcPort, DstPort, then the payload's length and bytes.
	off := d + 1 + int(b[d])
	if len(b) < off+7 || int(binary.BigEndian.Uint16(b[off+5:])) != len(b)-off-7 {
		return Header{}, nil, false
	}
	switch b[d] {
	case 4:
		h.Dst = netip.AddrFrom4([4]byte(b[d+1:]))
	case 16:
		h.Dst = netip.AddrFrom16([16]byte(b[d+1:]))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[off+1:])
	h.DstPort = binary.BigEndian.Uint16(b[off+3:])
	return h, b[off+7:], true
}

// addrLenOK reports whether n is a valid address length field.
func addrLenOK(n byte) bool { return n == 0 || n == 4 || n == 16 }

// Reply returns a packet template answering p: swapped addresses and ports,
// same protocol.
func (p Packet) Reply(payload []byte) Packet {
	return Packet{
		Src: p.Dst, Dst: p.Src,
		Proto:   p.Proto,
		SrcPort: p.DstPort, DstPort: p.SrcPort,
		Payload: payload,
	}
}

// Pool allocates dynamic IP addresses from a contiguous range starting at a
// base address — the GGSN's dynamic PDP address allocation (paper step 1.3
// assumes dynamic allocation). Addresses are represented internally as
// 32-bit offsets from the base with a bitset membership check, so a
// million-address pool costs one bit per address instead of a map entry:
// the pool is sized to the subscriber population in the scale experiments.
type Pool struct {
	base uint32   // numeric value of the base address (offset 0, never issued)
	cap  uint32   // number of allocatable addresses (offsets 1..cap)
	next uint32   // high-water mark of sequentially issued offsets
	free []uint32 // LIFO stack of released offsets
	used []uint64 // bitset over offsets; bit set = currently allocated
}

// NewPoolSize returns a pool of n addresses counting up from the base
// (carrying across octets, so a base of "10.0.0.0" with n=1000 spans
// 10.0.0.1 .. 10.0.3.232). Zero or negative n means the classic 254-host
// /24.
func NewPoolSize(prefix string, n int) (*Pool, error) {
	addr, err := netip.ParseAddr(prefix)
	if err != nil {
		return nil, fmt.Errorf("ipnet: bad pool prefix: %w", err)
	}
	base, v4 := V4Key(addr)
	if !v4 {
		return nil, fmt.Errorf("ipnet: pool prefix %s is not IPv4", prefix)
	}
	if n <= 0 {
		n = 254
	}
	if uint64(base)+uint64(n) > 0xFFFFFFFF {
		return nil, fmt.Errorf("ipnet: pool %s+%d overflows the IPv4 space", prefix, n)
	}
	return &Pool{
		base: base,
		cap:  uint32(n),
		used: make([]uint64, (n+64)/64+1),
	}, nil
}

// ErrPoolExhausted is returned when no addresses remain.
var ErrPoolExhausted = errors.New("ipnet: address pool exhausted")

func (p *Pool) addrAt(off uint32) netip.Addr {
	v := p.base + off
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Allocate returns a free address, preferring the most recently released.
func (p *Pool) Allocate() (netip.Addr, error) {
	var off uint32
	if n := len(p.free); n > 0 {
		off = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if p.next >= p.cap {
			return netip.Addr{}, ErrPoolExhausted
		}
		p.next++
		off = p.next
	}
	p.used[off/64] |= 1 << (off % 64)
	return p.addrAt(off), nil
}

// Release returns an address to the pool. Releasing an address not allocated
// from this pool is a no-op.
func (p *Pool) Release(addr netip.Addr) {
	v, v4 := V4Key(addr)
	off := v - p.base
	if !v4 || v < p.base || off == 0 || off > p.cap || p.used[off/64]&(1<<(off%64)) == 0 {
		return
	}
	p.used[off/64] &^= 1 << (off % 64)
	p.free = append(p.free, off)
}

// V4Key returns an IPv4 address as a 4-byte index key, most significant octet
// first. Every address on the simulated networks is IPv4 (pools allocate
// nothing else), so the per-address indexes key on this form instead of the
// 24-byte netip.Addr; ok is false for anything else, 4-in-6 included.
func V4Key(a netip.Addr) (key uint32, ok bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), true
}

// MustAddr parses an address, panicking on error; for fixture topologies.
func MustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}
