// Package gtp implements the GPRS Tunnelling Protocol version 0 (GSM 09.60)
// used on the Gn interface between SGSN and GGSN: the 20-byte GTPv0 header,
// the Create/Delete PDP Context control messages, and T-PDU user-plane
// encapsulation. The paper's Fig 3 shows GTP on link (3); every H.323
// signalling message and every voice packet between the VMSC and the H.323
// network crosses this tunnel.
package gtp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
	"vgprs/internal/wire"
)

// ErrBadMessage is returned when a GTP message fails to decode.
var ErrBadMessage = errors.New("gtp: malformed message")

// TID is the GTPv0 tunnel identifier. GSM 09.60 derives it from the IMSI
// (BCD) plus NSAPI; MakeTID reproduces that derivation over this
// repository's identity types.
type TID uint64

// MakeTID builds a tunnel identifier from an IMSI and NSAPI. The low 60
// bits hash the IMSI digits (which fit: 15 BCD digits); the top 4 bits are
// the NSAPI, matching the spec's layout.
func MakeTID(imsi gsmid.IMSI, nsapi uint8) TID {
	var v uint64
	for i := 0; i < len(imsi); i++ {
		v = v*10 + uint64(imsi[i]-'0')
	}
	v &= (1 << 60) - 1
	return TID(v | uint64(nsapi&0x0F)<<60)
}

// NSAPI extracts the NSAPI encoded in the TID.
func (t TID) NSAPI() uint8 { return uint8(t >> 60) }

// String formats the TID in hex. Hand-rolled (not Sprintf) because tracing
// formats every tunnelled message's TID on the hot path.
func (t TID) String() string {
	const hex = "0123456789ABCDEF"
	var b [20]byte
	copy(b[:], "TID-")
	v := uint64(t)
	for i := 19; i >= 4; i-- {
		b[i] = hex[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

// MsgType is the GTP message type (GSM 09.60 §7.1).
type MsgType uint8

// GTP message types implemented (spec values).
const (
	MsgCreatePDPRequest  MsgType = 16
	MsgCreatePDPResponse MsgType = 17
	MsgDeletePDPRequest  MsgType = 20
	MsgDeletePDPResponse MsgType = 21
	MsgPDUNotifyRequest  MsgType = 27
	MsgPDUNotifyResponse MsgType = 28
	MsgTPDU              MsgType = 255
)

// Cause values (GSM 09.60 §7.9.1; 128 = request accepted).
type Cause uint8

// Causes used by the PDP-context procedures.
const (
	CauseAccepted        Cause = 128
	CauseNoResources     Cause = 199
	CauseNotFound        Cause = 193 // non-existent context
	CauseSystemFailure   Cause = 204
	CauseNoMemory        Cause = 205
	CauseMissingResource Cause = 202
)

// Accepted reports whether the cause is the success value.
func (c Cause) Accepted() bool { return c == CauseAccepted }

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseAccepted:
		return "request-accepted"
	case CauseNoResources:
		return "no-resources-available"
	case CauseNotFound:
		return "non-existent"
	case CauseSystemFailure:
		return "system-failure"
	case CauseNoMemory:
		return "no-memory"
	case CauseMissingResource:
		return "mandatory-ie-missing"
	default:
		return "Cause(" + strconv.Itoa(int(c)) + ")"
	}
}

// headerLen is the fixed GTPv0 header length.
const headerLen = 20

// Header is the GTPv0 fixed header.
type Header struct {
	Type MsgType
	// Length is the payload length in octets (excluding this header).
	Length uint16
	Seq    uint16
	Flow   uint16
	TID    TID
}

// marshalHeader writes the 20-byte GTPv0 header. Octet 1 is
// version=0|PT=1|spare=111|SNN=0 -> 0x1E per GSM 09.60 §6.
func marshalHeader(w *wire.Writer, h Header) {
	w.U8(0x1E)
	w.U8(uint8(h.Type))
	w.U16(h.Length)
	w.U16(h.Seq)
	w.U16(h.Flow)
	w.U8(0xFF)                      // SNDCP N-PDU number (unused)
	w.Raw([]byte{0xFF, 0xFF, 0xFF}) // spare
	w.U64(uint64(h.TID))
}

func unmarshalHeader(r *wire.Reader) (Header, error) {
	flags := r.U8()
	h := Header{
		Type:   MsgType(r.U8()),
		Length: r.U16(),
		Seq:    r.U16(),
		Flow:   r.U16(),
	}
	r.U8()    // SNDCP N-PDU
	r.View(3) // spare
	h.TID = TID(r.U64())
	if err := r.Err(); err != nil {
		return Header{}, fmt.Errorf("%w: header: %v", ErrBadMessage, err)
	}
	if flags>>5 != 0 {
		return Header{}, fmt.Errorf("%w: GTP version %d unsupported", ErrBadMessage, flags>>5)
	}
	return h, nil
}

// QoSProfile is the GPRS quality-of-service profile negotiated at PDP
// activation. The paper's step 1.3 sets the signalling context to low
// priority; step 2.9 activates a second, real-time context for voice.
type QoSProfile struct {
	// Precedence: 1 high, 2 normal, 3 low.
	Precedence uint8
	// Delay class: 1 (predictive, best) .. 4 (best effort).
	DelayClass uint8
	// PeakThroughputKbps caps the context's rate.
	PeakThroughputKbps uint16
	// Realtime marks the voice profile used by media contexts.
	Realtime bool
}

// SignallingQoS is the low-priority profile for the H.323 signalling PDP
// context (paper step 1.3: "the QoS profile can be set to low priority and
// network resource would not be wasted").
func SignallingQoS() QoSProfile {
	return QoSProfile{Precedence: 3, DelayClass: 4, PeakThroughputKbps: 16}
}

// VoiceQoS is the real-time profile activated per call (paper step 2.9).
func VoiceQoS() QoSProfile {
	return QoSProfile{Precedence: 1, DelayClass: 1, PeakThroughputKbps: 32, Realtime: true}
}

func marshalQoS(w *wire.Writer, q QoSProfile) {
	w.U8(q.Precedence)
	w.U8(q.DelayClass)
	w.U16(q.PeakThroughputKbps)
	if q.Realtime {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func unmarshalQoS(r *wire.Reader) QoSProfile {
	return QoSProfile{
		Precedence:         r.U8(),
		DelayClass:         r.U8(),
		PeakThroughputKbps: r.U16(),
		Realtime:           r.U8() != 0,
	}
}

// CreatePDPRequest asks the GGSN to create a PDP context (SGSN -> GGSN).
type CreatePDPRequest struct {
	Seq   uint16
	IMSI  gsmid.IMSI
	NSAPI uint8
	QoS   QoSProfile
	// SGSN is the SGSN's address for the GGSN's reverse tunnel endpoint.
	SGSN string
	// RequestedAddress requests a specific (static) PDP address; empty
	// selects dynamic allocation.
	RequestedAddress string
	// NetworkInitiated marks a context created on the GGSN's request (the
	// TR 23.923 MT-call path).
	NetworkInitiated bool
}

// Name implements sim.Message.
func (CreatePDPRequest) Name() string { return "GTP Create PDP Context Request" }

// CreatePDPResponse answers a CreatePDPRequest.
type CreatePDPResponse struct {
	Seq   uint16
	Cause Cause
	TID   TID
	// Address is the PDP address in use for the context.
	Address string
	// QoS is the negotiated profile — the GGSN may downgrade the
	// requested one (GSM 03.60 QoS negotiation).
	QoS QoSProfile
}

// Name implements sim.Message.
func (CreatePDPResponse) Name() string { return "GTP Create PDP Context Response" }

// DeletePDPRequest tears a context down.
type DeletePDPRequest struct {
	Seq uint16
	TID TID
}

// Name implements sim.Message.
func (DeletePDPRequest) Name() string { return "GTP Delete PDP Context Request" }

// DeletePDPResponse answers a DeletePDPRequest.
type DeletePDPResponse struct {
	Seq   uint16
	Cause Cause
}

// Name implements sim.Message.
func (DeletePDPResponse) Name() string { return "GTP Delete PDP Context Response" }

// TPDU is a user-plane packet in the tunnel: an encapsulated IP datagram.
type TPDU struct {
	TID     TID
	Payload []byte
}

// Name implements sim.Message.
func (TPDU) Name() string { return "GTP T-PDU" }

// PDUNotifyRequest is the GGSN's request that the SGSN ask the MS to
// activate a PDP context because downlink traffic arrived for a static PDP
// address with no active context — the network-initiated activation the
// TR 23.923 baseline needs for terminating calls (GSM 09.60 §7.4.5; the
// paper's §6 notes GSM 03.60 requires a static PDP address for this).
type PDUNotifyRequest struct {
	Seq     uint16
	IMSI    gsmid.IMSI
	Address string
}

// Name implements sim.Message.
func (PDUNotifyRequest) Name() string { return "GTP PDU Notification Request" }

// PDUNotifyResponse acknowledges a PDUNotifyRequest.
type PDUNotifyResponse struct {
	Seq   uint16
	Cause Cause
}

// Name implements sim.Message.
func (PDUNotifyResponse) Name() string { return "GTP PDU Notification Response" }

// Interface-compliance assertions.
var (
	_ sim.Message = CreatePDPRequest{}
	_ sim.Message = CreatePDPResponse{}
	_ sim.Message = DeletePDPRequest{}
	_ sim.Message = DeletePDPResponse{}
	_ sim.Message = TPDU{}
	_ sim.Message = PDUNotifyRequest{}
	_ sim.Message = PDUNotifyResponse{}
)

// Marshal encodes a GTP message with its v0 header, returning a fresh
// buffer the caller owns.
func Marshal(msg sim.Message) ([]byte, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	if err := encode(w, msg); err != nil {
		return nil, err
	}
	return w.CopyBytes(), nil
}

// Append encodes a GTP message onto dst and returns the extended slice. On
// error dst is returned unchanged.
func Append(dst []byte, msg sim.Message) ([]byte, error) {
	w := wire.Wrap(dst)
	if err := encode(&w, msg); err != nil {
		return dst, err
	}
	return w.Bytes(), nil
}

// encode writes header and body in one pass over a single buffer: the
// header goes out with Length zero, the body is appended behind it, and the
// Length field is patched in place (octets 2-3 of the header) once the body
// size is known. This replaces the old two-writer, copy-the-body scheme.
func encode(w *wire.Writer, msg sim.Message) error {
	start := w.Len()
	switch m := msg.(type) {
	case CreatePDPRequest:
		marshalHeader(w, Header{Type: MsgCreatePDPRequest, Seq: m.Seq})
		w.BCD(string(m.IMSI))
		w.U8(m.NSAPI)
		marshalQoS(w, m.QoS)
		w.String8(m.SGSN)
		w.String8(m.RequestedAddress)
		if m.NetworkInitiated {
			w.U8(1)
		} else {
			w.U8(0)
		}
	case CreatePDPResponse:
		marshalHeader(w, Header{Type: MsgCreatePDPResponse, Seq: m.Seq, TID: m.TID})
		w.U8(uint8(m.Cause))
		w.String8(m.Address)
		marshalQoS(w, m.QoS)
	case DeletePDPRequest:
		marshalHeader(w, Header{Type: MsgDeletePDPRequest, Seq: m.Seq, TID: m.TID})
	case DeletePDPResponse:
		marshalHeader(w, Header{Type: MsgDeletePDPResponse, Seq: m.Seq})
		w.U8(uint8(m.Cause))
	case PDUNotifyRequest:
		marshalHeader(w, Header{Type: MsgPDUNotifyRequest, Seq: m.Seq})
		w.BCD(string(m.IMSI))
		w.String8(m.Address)
	case PDUNotifyResponse:
		marshalHeader(w, Header{Type: MsgPDUNotifyResponse, Seq: m.Seq})
		w.U8(uint8(m.Cause))
	case TPDU:
		marshalHeader(w, Header{Type: MsgTPDU, TID: m.TID})
		w.Raw(m.Payload)
	default:
		return fmt.Errorf("gtp: cannot marshal %T", msg)
	}
	payload := w.Len() - start - headerLen
	if payload > 0xFFFF {
		return fmt.Errorf("gtp: payload %d bytes exceeds 65535", payload)
	}
	binary.BigEndian.PutUint16(w.Bytes()[start+2:], uint16(payload))
	return nil
}

// Unmarshal decodes a GTP message.
func Unmarshal(b []byte) (sim.Message, error) {
	var r wire.Reader
	r.Reset(b)
	h, err := unmarshalHeader(&r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != int(h.Length) {
		return nil, fmt.Errorf("%w: length %d, %d bytes remain", ErrBadMessage, h.Length, r.Remaining())
	}
	var msg sim.Message
	switch h.Type {
	case MsgCreatePDPRequest:
		m := CreatePDPRequest{Seq: h.Seq}
		m.IMSI = gsmid.IMSI(r.BCD())
		m.NSAPI = r.U8()
		m.QoS = unmarshalQoS(&r)
		m.SGSN = r.String8()
		m.RequestedAddress = r.String8()
		m.NetworkInitiated = r.U8() != 0
		msg = m
	case MsgCreatePDPResponse:
		msg = CreatePDPResponse{Seq: h.Seq, TID: h.TID, Cause: Cause(r.U8()),
			Address: r.String8(), QoS: unmarshalQoS(&r)}
	case MsgDeletePDPRequest:
		msg = DeletePDPRequest{Seq: h.Seq, TID: h.TID}
	case MsgDeletePDPResponse:
		msg = DeletePDPResponse{Seq: h.Seq, Cause: Cause(r.U8())}
	case MsgPDUNotifyRequest:
		msg = PDUNotifyRequest{Seq: h.Seq, IMSI: gsmid.IMSI(r.BCD()), Address: r.String8()}
	case MsgPDUNotifyResponse:
		msg = PDUNotifyResponse{Seq: h.Seq, Cause: Cause(r.U8())}
	case MsgTPDU:
		msg = TPDU{TID: h.TID, Payload: r.Rest()}
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", ErrBadMessage, h.Type)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, r.Remaining())
	}
	return msg, nil
}

// Negotiate returns the QoS profile the network grants for a request: the
// peak throughput is capped at maxKbps (0 = no cap) and precedence/delay
// never improve beyond the request.
func Negotiate(requested QoSProfile, maxKbps uint16) QoSProfile {
	out := requested
	if maxKbps > 0 && out.PeakThroughputKbps > maxKbps {
		out.PeakThroughputKbps = maxKbps
	}
	return out
}
