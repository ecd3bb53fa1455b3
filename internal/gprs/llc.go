package gprs

import (
	"fmt"

	"vgprs/internal/ipnet"
	"vgprs/internal/sim"
	"vgprs/internal/wire"
)

// LLC service access points: signalling (GMM/SM) vs user data (SNDCP).
const (
	sapiSignalling uint8 = 1
	sapiData       uint8 = 3
)

// WrapSM frames a GMM/SM message as an LLC PDU. SAPI octet and message body
// marshal into one exact-copy buffer via the pooled writer — no
// intermediate body slice.
func WrapSM(msg sim.Message) ([]byte, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.U8(sapiSignalling)
	if err := encodeSM(w, msg); err != nil {
		return nil, err
	}
	return w.CopyBytes(), nil
}

// WrapData frames an IP packet as an SNDCP LLC PDU on the given NSAPI. The
// LLC header and IP encoding share one exact-size buffer.
func WrapData(nsapi uint8, pkt ipnet.Packet) []byte {
	out := make([]byte, 0, 2+pkt.EncodedLen())
	out = append(out, sapiData, nsapi)
	return pkt.AppendTo(out)
}

// AppendData frames an IP packet as an SNDCP LLC PDU into dst, the
// allocation-free form of WrapData for talk paths that reuse one LLC buffer
// per bearer.
func AppendData(dst []byte, nsapi uint8, pkt ipnet.Packet) []byte {
	dst = append(dst, sapiData, nsapi)
	return pkt.AppendTo(dst)
}

// PeekData reads the inner packet of a user-data LLC PDU in place
// (ipnet.Peek), for a receiver that consumes media without decoding the
// packet. ok is false for a signalling PDU and for exactly the data PDUs
// ParsePDU rejects.
func PeekData(pdu []byte) (h ipnet.Header, payload []byte, ok bool) {
	if len(pdu) < 2 || pdu[0] != sapiData {
		return ipnet.Header{}, nil, false
	}
	return ipnet.Peek(pdu[2:])
}

// PDU is a parsed LLC PDU: exactly one of SM or Packet is meaningful.
type PDU struct {
	// SM holds the signalling message when the PDU is on the GMM SAPI.
	SM sim.Message
	// NSAPI and Packet hold user data when the PDU is on the data SAPI.
	NSAPI  uint8
	Packet ipnet.Packet
	// IsData discriminates the two arms.
	IsData bool
}

// ParsePDU decodes an LLC PDU produced by WrapSM or WrapData.
func ParsePDU(pdu []byte) (PDU, error) {
	if len(pdu) == 0 {
		return PDU{}, fmt.Errorf("%w: empty LLC PDU", ErrBadMessage)
	}
	switch pdu[0] {
	case sapiSignalling:
		msg, err := UnmarshalSM(pdu[1:])
		if err != nil {
			return PDU{}, err
		}
		return PDU{SM: msg}, nil
	case sapiData:
		if len(pdu) < 2 {
			return PDU{}, fmt.Errorf("%w: SNDCP PDU too short", ErrBadMessage)
		}
		pkt, err := ipnet.Unmarshal(pdu[2:])
		if err != nil {
			return PDU{}, fmt.Errorf("%w: SNDCP payload: %v", ErrBadMessage, err)
		}
		return PDU{IsData: true, NSAPI: pdu[1], Packet: pkt}, nil
	default:
		return PDU{}, fmt.Errorf("%w: unknown SAPI %d", ErrBadMessage, pdu[0])
	}
}
