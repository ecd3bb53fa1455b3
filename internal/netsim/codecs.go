package netsim

import (
	"sync"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gtp"
	"vgprs/internal/h323"
	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// sizeScratch recycles the encode buffer WireSize appends into; only the
// length of the encoding is kept, so the bytes themselves never leave this
// file.
var sizeScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// WireSize returns the encoded size of a message through its protocol's
// wire codec, plus the codec family name. ok is false for message types
// with no codec (none remain — every traced type encodes — but the
// signature keeps callers honest). The experiment harness uses it to turn
// traces into byte counts; the wire-through test uses the same dispatch to
// verify round trips. Encoding goes through the codecs' Append entry
// points into a pooled scratch buffer, so sizing a trace does not allocate
// per message.
func WireSize(msg sim.Message) (n int, family string, ok bool) {
	sp := sizeScratch.Get().(*[]byte)
	defer sizeScratch.Put(sp)
	scratch := (*sp)[:0]
	var b []byte
	var err error
	switch m := msg.(type) {
	case sigmap.UpdateLocationArea, sigmap.UpdateLocationAreaAck,
		sigmap.UpdateLocation, sigmap.UpdateLocationAck,
		sigmap.InsertSubscriberData, sigmap.InsertSubscriberDataAck,
		sigmap.SendAuthenticationInfo, sigmap.SendAuthenticationInfoAck,
		sigmap.Authenticate, sigmap.AuthenticateAck,
		sigmap.SetCipherMode, sigmap.SetCipherModeAck,
		sigmap.SendInfoForOutgoingCall, sigmap.SendInfoForOutgoingCallAck,
		sigmap.SendRoutingInformation, sigmap.SendRoutingInformationAck,
		sigmap.ProvideRoamingNumber, sigmap.ProvideRoamingNumberAck,
		sigmap.SendInfoForIncomingCall, sigmap.SendInfoForIncomingCallAck,
		sigmap.SendRoutingInfoForGPRS, sigmap.SendRoutingInfoForGPRSAck,
		sigmap.UpdateGPRSLocation, sigmap.UpdateGPRSLocationAck,
		sigmap.PrepareHandover, sigmap.PrepareHandoverAck,
		sigmap.PrepareSubsequentHandover, sigmap.PrepareSubsequentHandoverAck,
		sigmap.SendEndSignal, sigmap.SendEndSignalAck,
		sigmap.CancelLocation, sigmap.CancelLocationAck,
		sigmap.SendIMSI, sigmap.SendIMSIAck:
		b, err = sigmap.Append(scratch, msg)
		family = "MAP"
	case q931.Setup, q931.CallProceeding, q931.Alerting, q931.Connect,
		q931.ConnectAck, q931.ReleaseComplete:
		b, err = q931.Append(scratch, msg)
		family = "Q.931"
	case isup.IAM, isup.ACM, isup.ANM, isup.REL, isup.RLC:
		b, err = isup.Append(scratch, msg)
		family = "ISUP"
	case gtp.CreatePDPRequest, gtp.CreatePDPResponse,
		gtp.DeletePDPRequest, gtp.DeletePDPResponse,
		gtp.PDUNotifyRequest, gtp.PDUNotifyResponse, gtp.TPDU:
		b, err = gtp.Append(scratch, msg)
		family = "GTP"
	case gb.ULUnitdata, gb.DLUnitdata:
		b, err = gb.Append(scratch, msg)
		family = "Gb"
	// The media fast path sends reusable pointer messages; they encode
	// exactly like their value forms.
	case *gtp.TPDU:
		b, err = gtp.Append(scratch, *m)
		family = "GTP"
	case *gb.ULUnitdata:
		b, err = gb.Append(scratch, *m)
		family = "Gb"
	case *gb.DLUnitdata:
		b, err = gb.Append(scratch, *m)
		family = "Gb"
	case ipnet.Packet:
		return m.EncodedLen(), "IP", true
	case h323.RRQ, h323.RCF, h323.RRJ, h323.URQ, h323.UCF,
		h323.ARQ, h323.ACF, h323.ARJ, h323.DRQ, h323.DCF,
		h323.LRQ, h323.LCF, h323.LRJ:
		b, err = h323.AppendRAS(scratch, msg)
		family = "RAS"
	case gprs.AttachRequest, gprs.AttachAccept, gprs.AttachReject,
		gprs.DetachRequest, gprs.DetachAccept,
		gprs.ActivatePDPRequest, gprs.ActivatePDPAccept, gprs.ActivatePDPReject,
		gprs.DeactivatePDPRequest, gprs.DeactivatePDPAccept,
		gprs.RequestPDPActivation:
		b, err = gprs.AppendSM(scratch, msg)
		family = "GMM"
	case gsm.ChannelRequest, gsm.ImmediateAssignment, gsm.LocationUpdate,
		gsm.LocationUpdateAccept, gsm.LocationUpdateReject,
		gsm.AuthRequest, gsm.AuthResponse,
		gsm.CipherModeCommand, gsm.CipherModeComplete,
		gsm.Setup, gsm.CallConfirmed, gsm.Alerting, gsm.Connect,
		gsm.Disconnect, gsm.Release, gsm.ReleaseComplete, gsm.IMSIDetach,
		gsm.Paging, gsm.PagingResponse, gsm.TCHFrame,
		gsm.MeasurementReport, gsm.HandoverRequired, gsm.HandoverCommand,
		gsm.HandoverAccess, gsm.HandoverComplete, gsm.LLCFrame:
		b, err = gsm.Append(scratch, msg)
		family = "GSM"
	default:
		return 0, "", false
	}
	if err != nil {
		return 0, "", false
	}
	if cap(b) > cap(*sp) {
		*sp = b
	}
	return len(b), family, true
}

// WireBytesByIface sums the encoded size of every traced message, grouped
// by interface — the byte-level counterpart of
// trace.Recorder.MessagesByInterface used by the C5 experiment.
func WireBytesByIface(rec *trace.Recorder) map[string]int {
	out := make(map[string]int)
	for _, e := range rec.Entries() {
		if n, _, ok := WireSize(e.Msg); ok {
			out[e.Iface] += n
		}
	}
	return out
}
