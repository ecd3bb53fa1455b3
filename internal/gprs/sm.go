// Package gprs implements the GPRS core network of the paper's Fig 1: the
// serving GPRS support node (SGSN), the gateway GPRS support node (GGSN),
// the GMM/SM signalling messages (GPRS attach, PDP context activation and
// deactivation, GSM 04.08 chapter 9), and a reusable protocol client that
// both plain GPRS mobile stations and the VMSC's per-MS virtual clients run
// (paper step 1.3: "the VMSC activates a new PDP context just like a GPRS
// MS does").
package gprs

import (
	"errors"
	"fmt"

	"vgprs/internal/gsmid"
	"vgprs/internal/gtp"
	"vgprs/internal/sim"
	"vgprs/internal/wire"
)

// ErrBadMessage is returned when a GMM/SM message fails to decode.
var ErrBadMessage = errors.New("gprs: malformed GMM/SM message")

// SMCause is the session/mobility-management failure cause.
type SMCause uint8

// Causes.
const (
	SMCauseNone SMCause = iota
	SMCauseNetworkFailure
	SMCauseNoResources
	SMCauseUnknownSubscriber
	SMCauseAlreadyAttached
	SMCauseNotAttached
	SMCauseDuplicateNSAPI
	SMCauseUnknownNSAPI
)

// String names the cause.
func (c SMCause) String() string {
	switch c {
	case SMCauseNone:
		return "none"
	case SMCauseNetworkFailure:
		return "network-failure"
	case SMCauseNoResources:
		return "no-resources"
	case SMCauseUnknownSubscriber:
		return "unknown-subscriber"
	case SMCauseAlreadyAttached:
		return "already-attached"
	case SMCauseNotAttached:
		return "not-attached"
	case SMCauseDuplicateNSAPI:
		return "duplicate-nsapi"
	case SMCauseUnknownNSAPI:
		return "unknown-nsapi"
	default:
		return fmt.Sprintf("SMCause(%d)", uint8(c))
	}
}

// AttachRequest starts GPRS attach (paper step 1.3: "the VMSC performs GPRS
// attach to the SGSN by exchanging the GPRS Attach Request and Accept
// message pair").
type AttachRequest struct {
	IMSI gsmid.IMSI
}

// Name implements sim.Message.
func (AttachRequest) Name() string { return "GPRS Attach Request" }

// AttachAccept completes attach and assigns the P-TMSI.
type AttachAccept struct {
	PTMSI gsmid.PTMSI
}

// Name implements sim.Message.
func (AttachAccept) Name() string { return "GPRS Attach Accept" }

// AttachReject refuses attach.
type AttachReject struct {
	Cause SMCause
}

// Name implements sim.Message.
func (AttachReject) Name() string { return "GPRS Attach Reject" }

// DetachRequest leaves the GPRS network.
type DetachRequest struct{}

// Name implements sim.Message.
func (DetachRequest) Name() string { return "GPRS Detach Request" }

// DetachAccept confirms detach.
type DetachAccept struct{}

// Name implements sim.Message.
func (DetachAccept) Name() string { return "GPRS Detach Accept" }

// ActivatePDPRequest asks for a PDP context (paper steps 1.3 and 2.9).
type ActivatePDPRequest struct {
	NSAPI uint8
	QoS   gtp.QoSProfile
	// RequestedAddress requests a static PDP address; empty means dynamic.
	RequestedAddress string
}

// Name implements sim.Message.
func (ActivatePDPRequest) Name() string { return "Activate PDP Context Request" }

// ActivatePDPAccept confirms activation with the address in use.
type ActivatePDPAccept struct {
	NSAPI   uint8
	Address string
	QoS     gtp.QoSProfile
}

// Name implements sim.Message.
func (ActivatePDPAccept) Name() string { return "Activate PDP Context Accept" }

// ActivatePDPReject refuses activation.
type ActivatePDPReject struct {
	NSAPI uint8
	Cause SMCause
}

// Name implements sim.Message.
func (ActivatePDPReject) Name() string { return "Activate PDP Context Reject" }

// DeactivatePDPRequest tears a context down (paper step 3.4).
type DeactivatePDPRequest struct {
	NSAPI uint8
}

// Name implements sim.Message.
func (DeactivatePDPRequest) Name() string { return "Deactivate PDP Context Request" }

// DeactivatePDPAccept confirms deactivation.
type DeactivatePDPAccept struct {
	NSAPI uint8
}

// Name implements sim.Message.
func (DeactivatePDPAccept) Name() string { return "Deactivate PDP Context Accept" }

// RequestPDPActivation is the network-requested activation (GSM 04.08
// §9.5.4) the SGSN relays when the GGSN holds downlink traffic for an
// inactive static-address context — the TR 23.923 MT-call path.
type RequestPDPActivation struct {
	Address string
}

// Name implements sim.Message.
func (RequestPDPActivation) Name() string { return "Request PDP Context Activation" }

// Interface-compliance assertions.
var (
	_ sim.Message = AttachRequest{}
	_ sim.Message = AttachAccept{}
	_ sim.Message = AttachReject{}
	_ sim.Message = DetachRequest{}
	_ sim.Message = DetachAccept{}
	_ sim.Message = ActivatePDPRequest{}
	_ sim.Message = ActivatePDPAccept{}
	_ sim.Message = ActivatePDPReject{}
	_ sim.Message = DeactivatePDPRequest{}
	_ sim.Message = DeactivatePDPAccept{}
	_ sim.Message = RequestPDPActivation{}
)

const (
	smAttachRequest uint8 = iota + 1
	smAttachAccept
	smAttachReject
	smDetachRequest
	smDetachAccept
	smActivateRequest
	smActivateAccept
	smActivateReject
	smDeactivateRequest
	smDeactivateAccept
	smRequestActivation
)

func marshalQoS(w *wire.Writer, q gtp.QoSProfile) {
	w.U8(q.Precedence)
	w.U8(q.DelayClass)
	w.U16(q.PeakThroughputKbps)
	if q.Realtime {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func unmarshalQoS(r *wire.Reader) gtp.QoSProfile {
	return gtp.QoSProfile{
		Precedence:         r.U8(),
		DelayClass:         r.U8(),
		PeakThroughputKbps: r.U16(),
		Realtime:           r.U8() != 0,
	}
}

// MarshalSM encodes a GMM/SM message, returning a fresh buffer the caller
// owns.
func MarshalSM(msg sim.Message) ([]byte, error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	if err := encodeSM(w, msg); err != nil {
		return nil, err
	}
	return w.CopyBytes(), nil
}

// AppendSM encodes a GMM/SM message onto dst and returns the extended
// slice. On error dst is returned unchanged.
func AppendSM(dst []byte, msg sim.Message) ([]byte, error) {
	w := wire.Wrap(dst)
	if err := encodeSM(&w, msg); err != nil {
		return dst, err
	}
	return w.Bytes(), nil
}

func encodeSM(w *wire.Writer, msg sim.Message) error {
	switch m := msg.(type) {
	case AttachRequest:
		w.U8(smAttachRequest)
		w.BCD(string(m.IMSI))
	case AttachAccept:
		w.U8(smAttachAccept)
		w.U32(uint32(m.PTMSI))
	case AttachReject:
		w.U8(smAttachReject)
		w.U8(uint8(m.Cause))
	case DetachRequest:
		w.U8(smDetachRequest)
	case DetachAccept:
		w.U8(smDetachAccept)
	case ActivatePDPRequest:
		w.U8(smActivateRequest)
		w.U8(m.NSAPI)
		marshalQoS(w, m.QoS)
		w.String8(m.RequestedAddress)
	case ActivatePDPAccept:
		w.U8(smActivateAccept)
		w.U8(m.NSAPI)
		w.String8(m.Address)
		marshalQoS(w, m.QoS)
	case ActivatePDPReject:
		w.U8(smActivateReject)
		w.U8(m.NSAPI)
		w.U8(uint8(m.Cause))
	case DeactivatePDPRequest:
		w.U8(smDeactivateRequest)
		w.U8(m.NSAPI)
	case DeactivatePDPAccept:
		w.U8(smDeactivateAccept)
		w.U8(m.NSAPI)
	case RequestPDPActivation:
		w.U8(smRequestActivation)
		w.String8(m.Address)
	default:
		return fmt.Errorf("gprs: cannot marshal %T", msg)
	}
	return nil
}

// UnmarshalSM decodes a GMM/SM message.
func UnmarshalSM(b []byte) (sim.Message, error) {
	var r wire.Reader
	r.Reset(b)
	var msg sim.Message
	switch op := r.U8(); op {
	case smAttachRequest:
		msg = AttachRequest{IMSI: gsmid.IMSI(r.BCD())}
	case smAttachAccept:
		msg = AttachAccept{PTMSI: gsmid.PTMSI(r.U32())}
	case smAttachReject:
		msg = AttachReject{Cause: SMCause(r.U8())}
	case smDetachRequest:
		msg = DetachRequest{}
	case smDetachAccept:
		msg = DetachAccept{}
	case smActivateRequest:
		msg = ActivatePDPRequest{NSAPI: r.U8(), QoS: unmarshalQoS(&r), RequestedAddress: r.String8()}
	case smActivateAccept:
		msg = ActivatePDPAccept{NSAPI: r.U8(), Address: r.String8(), QoS: unmarshalQoS(&r)}
	case smActivateReject:
		msg = ActivatePDPReject{NSAPI: r.U8(), Cause: SMCause(r.U8())}
	case smDeactivateRequest:
		msg = DeactivatePDPRequest{NSAPI: r.U8()}
	case smDeactivateAccept:
		msg = DeactivatePDPAccept{NSAPI: r.U8()}
	case smRequestActivation:
		msg = RequestPDPActivation{Address: r.String8()}
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
