// Package h323 implements the H.323 system of the paper: the H.225.0 RAS
// protocol (registration, admission, location, disengage), a standard
// gatekeeper with the address-translation table of paper step 1.5, H.323
// terminals, and the H.323/PSTN gateway of the tromboning scenario (Fig 8).
//
// RAS rides over UDP port 1719 and Q.931 call signalling over TCP port 1720
// inside ipnet packets, so every exchange with a GPRS-attached endpoint
// (the VMSC) physically crosses the Gb/GTP tunnel path of Fig 3.
//
// Substitution note: real H.225.0 RAS is ASN.1 PER; this reproduction uses
// the repository's binary TLV codec with the same message semantics
// (DESIGN.md, substitution table).
package h323

import (
	"errors"
	"fmt"
	"net/netip"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
	"vgprs/internal/wire"
)

// ErrBadMessage is returned when a RAS message fails to decode.
var ErrBadMessage = errors.New("h323: malformed RAS message")

// RejectReason explains RRJ/ARJ/LRJ.
type RejectReason uint8

// Reject reasons.
const (
	RejectNone RejectReason = iota
	RejectDuplicateAlias
	RejectCalledPartyNotRegistered
	RejectCallerNotRegistered
	RejectResourceUnavailable
	RejectGenericData
	RejectFullRegistrationRequired
	// RejectTimeout is a local synthetic reason: the RAS transaction
	// exhausted its retransmission budget without any gatekeeper answer.
	RejectTimeout
)

// String names the reason.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "none"
	case RejectDuplicateAlias:
		return "duplicate-alias"
	case RejectCalledPartyNotRegistered:
		return "called-party-not-registered"
	case RejectCallerNotRegistered:
		return "caller-not-registered"
	case RejectResourceUnavailable:
		return "resource-unavailable"
	case RejectFullRegistrationRequired:
		return "full registration required"
	case RejectGenericData:
		return "generic-data"
	case RejectTimeout:
		return "transaction-timeout"
	default:
		return fmt.Sprintf("RejectReason(%d)", uint8(r))
	}
}

// RRQ registers an endpoint's alias and call-signalling address with the
// gatekeeper (paper step 1.4: "the VMSC initiates the end-point
// registration to inform the GK of its transport address and alias address
// (i.e., MSISDN)").
type RRQ struct {
	Seq        uint32
	Alias      gsmid.MSISDN
	SignalAddr netip.Addr
	SignalPort uint16
	// KeepAlive marks a lightweight refresh of an existing registration
	// (H.225 keepAlive). The gatekeeper answers RRJ "full registration
	// required" if it no longer holds the row.
	KeepAlive bool
	// TTLSeconds is the requested registration lifetime (H.225
	// timeToLive); zero asks for the gatekeeper's default.
	TTLSeconds uint16
}

// Name implements sim.Message.
func (RRQ) Name() string { return "RAS RRQ" }

// RCF confirms registration (paper step 1.5).
type RCF struct {
	Seq        uint32
	EndpointID string
	// TTLSeconds is the granted registration lifetime; zero means the
	// registration never expires.
	TTLSeconds uint16
}

// Name implements sim.Message.
func (RCF) Name() string { return "RAS RCF" }

// RRJ rejects registration.
type RRJ struct {
	Seq    uint32
	Reason RejectReason
}

// Name implements sim.Message.
func (RRJ) Name() string { return "RAS RRJ" }

// URQ unregisters an endpoint (used when an MS detaches from vGPRS).
type URQ struct {
	Seq   uint32
	Alias gsmid.MSISDN
	// SignalAddr identifies the unregistering endpoint; the gatekeeper
	// ignores a URQ whose address does not match the registration, so a
	// departed switch cannot knock out an alias that has since moved.
	SignalAddr netip.Addr
}

// Name implements sim.Message.
func (URQ) Name() string { return "RAS URQ" }

// UCF confirms unregistration.
type UCF struct {
	Seq uint32
}

// Name implements sim.Message.
func (UCF) Name() string { return "RAS UCF" }

// ARQ requests call admission and address translation (paper steps 2.3,
// 2.5, 4.1, 4.3).
type ARQ struct {
	Seq uint32
	// CallerAlias identifies the requesting endpoint.
	CallerAlias gsmid.MSISDN
	// CalledAlias is the dialled party (the MSISDN for calls toward MSs).
	CalledAlias gsmid.MSISDN
	CallRef     uint16
	// Answer marks an admission request for an incoming call (the called
	// side's ARQ of step 2.5).
	Answer bool
}

// Name implements sim.Message.
func (ARQ) Name() string { return "RAS ARQ" }

// ACF admits the call and returns the destination's call signalling channel
// transport address (paper step 2.3).
type ACF struct {
	Seq        uint32
	SignalAddr netip.Addr
	SignalPort uint16
}

// Name implements sim.Message.
func (ACF) Name() string { return "RAS ACF" }

// ARJ rejects admission (paper step 2.5: "it is possible that an RAS
// Admission Reject message is received by the terminal and the call is
// released").
type ARJ struct {
	Seq    uint32
	Reason RejectReason
}

// Name implements sim.Message.
func (ARJ) Name() string { return "RAS ARJ" }

// DRQ reports call completion (paper step 3.3: "the GK records the call
// statistics for charging").
type DRQ struct {
	Seq     uint32
	Alias   gsmid.MSISDN
	CallRef uint16
	// Peer is the remote party's alias. The gatekeeper keys an open call
	// by the CALLER's (alias, reference), so the called side, or a gateway
	// speaking for a PSTN callee, names the caller here — the reference
	// alone is ambiguous when one endpoint holds calls from several peers.
	Peer gsmid.MSISDN
}

// Name implements sim.Message.
func (DRQ) Name() string { return "RAS DRQ" }

// DCF confirms disengage.
type DCF struct {
	Seq uint32
}

// Name implements sim.Message.
func (DCF) Name() string { return "RAS DCF" }

// LRQ asks the gatekeeper to translate an alias without admitting a call —
// the gateway's table probe in the tromboning scenario (Fig 8 step (2)).
type LRQ struct {
	Seq   uint32
	Alias gsmid.MSISDN
}

// Name implements sim.Message.
func (LRQ) Name() string { return "RAS LRQ" }

// LCF returns the alias's call-signalling address.
type LCF struct {
	Seq        uint32
	SignalAddr netip.Addr
	SignalPort uint16
}

// Name implements sim.Message.
func (LCF) Name() string { return "RAS LCF" }

// LRJ reports the alias is not registered (Fig 8: the call then falls back
// to the international PSTN).
type LRJ struct {
	Seq    uint32
	Reason RejectReason
}

// Name implements sim.Message.
func (LRJ) Name() string { return "RAS LRJ" }

// Interface-compliance assertions.
var (
	_ sim.Message = RRQ{}
	_ sim.Message = RCF{}
	_ sim.Message = RRJ{}
	_ sim.Message = URQ{}
	_ sim.Message = UCF{}
	_ sim.Message = ARQ{}
	_ sim.Message = ACF{}
	_ sim.Message = ARJ{}
	_ sim.Message = DRQ{}
	_ sim.Message = DCF{}
	_ sim.Message = LRQ{}
	_ sim.Message = LCF{}
	_ sim.Message = LRJ{}
)

// rasSeq returns a RAS message's sequence number and whether the message is
// an answer (a confirm or reject) rather than a request.
func rasSeq(msg sim.Message) (seq uint32, answer bool) {
	switch m := msg.(type) {
	case RRQ:
		return m.Seq, false
	case URQ:
		return m.Seq, false
	case ARQ:
		return m.Seq, false
	case DRQ:
		return m.Seq, false
	case LRQ:
		return m.Seq, false
	case RCF:
		return m.Seq, true
	case RRJ:
		return m.Seq, true
	case UCF:
		return m.Seq, true
	case ACF:
		return m.Seq, true
	case ARJ:
		return m.Seq, true
	case DCF:
		return m.Seq, true
	case LCF:
		return m.Seq, true
	case LRJ:
		return m.Seq, true
	}
	return 0, false
}

const (
	opRRQ uint8 = iota + 1
	opRCF
	opRRJ
	opURQ
	opUCF
	opARQ
	opACF
	opARJ
	opDRQ
	opDCF
	opLRQ
	opLCF
	opLRJ
)

func marshalAddr(w *wire.Writer, addr netip.Addr, port uint16) {
	w.Addr(addr)
	if addr.IsValid() {
		w.U16(port)
	}
}

func unmarshalAddr(r *wire.Reader) (netip.Addr, uint16) {
	addr := r.Addr()
	if !addr.IsValid() {
		return netip.Addr{}, 0
	}
	port := r.U16()
	if r.Err() != nil {
		return netip.Addr{}, 0
	}
	return addr, port
}

// MarshalRAS encodes a RAS message, returning a fresh buffer the caller
// owns.
func MarshalRAS(msg sim.Message) ([]byte, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	if err := encodeRAS(w, msg); err != nil {
		return nil, err
	}
	return w.CopyBytes(), nil
}

// AppendRAS encodes a RAS message onto dst and returns the extended slice.
// On error dst is returned unchanged.
func AppendRAS(dst []byte, msg sim.Message) ([]byte, error) {
	w := wire.Wrap(dst)
	if err := encodeRAS(&w, msg); err != nil {
		return dst, err
	}
	return w.Bytes(), nil
}

func encodeRAS(w *wire.Writer, msg sim.Message) error {
	switch m := msg.(type) {
	case RRQ:
		w.U8(opRRQ)
		w.U32(m.Seq)
		w.BCD(string(m.Alias))
		marshalAddr(w, m.SignalAddr, m.SignalPort)
		if m.KeepAlive {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.U16(m.TTLSeconds)
	case RCF:
		w.U8(opRCF)
		w.U32(m.Seq)
		w.String8(m.EndpointID)
		w.U16(m.TTLSeconds)
	case RRJ:
		w.U8(opRRJ)
		w.U32(m.Seq)
		w.U8(uint8(m.Reason))
	case URQ:
		w.U8(opURQ)
		w.U32(m.Seq)
		w.BCD(string(m.Alias))
		marshalAddr(w, m.SignalAddr, 0)
	case UCF:
		w.U8(opUCF)
		w.U32(m.Seq)
	case ARQ:
		w.U8(opARQ)
		w.U32(m.Seq)
		w.BCD(string(m.CallerAlias))
		w.BCD(string(m.CalledAlias))
		w.U16(m.CallRef)
		if m.Answer {
			w.U8(1)
		} else {
			w.U8(0)
		}
	case ACF:
		w.U8(opACF)
		w.U32(m.Seq)
		marshalAddr(w, m.SignalAddr, m.SignalPort)
	case ARJ:
		w.U8(opARJ)
		w.U32(m.Seq)
		w.U8(uint8(m.Reason))
	case DRQ:
		w.U8(opDRQ)
		w.U32(m.Seq)
		w.BCD(string(m.Alias))
		w.U16(m.CallRef)
		w.BCD(string(m.Peer))
	case DCF:
		w.U8(opDCF)
		w.U32(m.Seq)
	case LRQ:
		w.U8(opLRQ)
		w.U32(m.Seq)
		w.BCD(string(m.Alias))
	case LCF:
		w.U8(opLCF)
		w.U32(m.Seq)
		marshalAddr(w, m.SignalAddr, m.SignalPort)
	case LRJ:
		w.U8(opLRJ)
		w.U32(m.Seq)
		w.U8(uint8(m.Reason))
	default:
		return fmt.Errorf("h323: cannot marshal %T", msg)
	}
	return nil
}

// UnmarshalRAS decodes a RAS message.
func UnmarshalRAS(b []byte) (sim.Message, error) {
	var r wire.Reader
	r.Reset(b)
	op := r.U8()
	seq := r.U32()
	var msg sim.Message
	switch op {
	case opRRQ:
		m := RRQ{Seq: seq, Alias: gsmid.MSISDN(r.BCD())}
		m.SignalAddr, m.SignalPort = unmarshalAddr(&r)
		m.KeepAlive = r.U8() != 0
		m.TTLSeconds = r.U16()
		msg = m
	case opRCF:
		msg = RCF{Seq: seq, EndpointID: r.String8(), TTLSeconds: r.U16()}
	case opRRJ:
		msg = RRJ{Seq: seq, Reason: RejectReason(r.U8())}
	case opURQ:
		m := URQ{Seq: seq, Alias: gsmid.MSISDN(r.BCD())}
		m.SignalAddr, _ = unmarshalAddr(&r)
		msg = m
	case opUCF:
		msg = UCF{Seq: seq}
	case opARQ:
		m := ARQ{Seq: seq}
		m.CallerAlias = gsmid.MSISDN(r.BCD())
		m.CalledAlias = gsmid.MSISDN(r.BCD())
		m.CallRef = r.U16()
		m.Answer = r.U8() != 0
		msg = m
	case opACF:
		m := ACF{Seq: seq}
		m.SignalAddr, m.SignalPort = unmarshalAddr(&r)
		msg = m
	case opARJ:
		msg = ARJ{Seq: seq, Reason: RejectReason(r.U8())}
	case opDRQ:
		m := DRQ{Seq: seq, Alias: gsmid.MSISDN(r.BCD())}
		m.CallRef = r.U16()
		m.Peer = gsmid.MSISDN(r.BCD())
		msg = m
	case opDCF:
		msg = DCF{Seq: seq}
	case opLRQ:
		msg = LRQ{Seq: seq, Alias: gsmid.MSISDN(r.BCD())}
	case opLCF:
		m := LCF{Seq: seq}
		m.SignalAddr, m.SignalPort = unmarshalAddr(&r)
		msg = m
	case opLRJ:
		msg = LRJ{Seq: seq, Reason: RejectReason(r.U8())}
	default:
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadMessage, op)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, r.Remaining())
	}
	return msg, nil
}
