// Package gsm implements the GSM radio-access side of the reproduction: the
// mobile station (MS), base transceiver station (BTS) and base station
// controller (BSC) state machines, and the layer-3 messages that cross the
// Um, Abis and A interfaces. Message names follow the paper's figures
// exactly ("Um_Setup", "Abis_Alerting", "A_Paging", ...), so recorded traces
// read like Figs 4-6.
//
// Correlation convention: every layer-3 message carries the MS's node ID.
// In real GSM this association is implicit in the dedicated radio channel /
// SCCP connection the message arrives on; carrying it explicitly is the
// simulation's stand-in for that channel binding. It is a node name, not a
// subscriber identity — IMSI confidentiality (experiment C4) is tracked via
// the Identity fields only.
package gsm

import (
	"fmt"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
)

// Leg names the interface a layer-3 message is currently crossing; relays
// (BTS, BSC) rewrite it hop by hop, which is what makes trace names match
// the paper's per-interface message naming.
type Leg uint8

// Legs of the radio-access signalling path.
const (
	LegUm Leg = iota + 1
	LegAbis
	LegA
)

// String names the leg.
func (l Leg) String() string {
	switch l {
	case LegUm:
		return "Um"
	case LegAbis:
		return "Abis"
	case LegA:
		return "A"
	default:
		return fmt.Sprintf("Leg(%d)", uint8(l))
	}
}

// ChannelRequest asks the network for a dedicated channel. The BTS relays
// it to the BSC (which owns channel allocation) as Abis_Channel_Required.
type ChannelRequest struct {
	Leg Leg
	MS  sim.NodeID
	// ForPaging marks a channel request triggered by a paging response.
	ForPaging bool
}

// Name implements sim.Message.
func (m ChannelRequest) Name() string {
	if m.Leg == LegAbis {
		return "Abis_Channel_Required"
	}
	return "Um_Channel_Request"
}

// ImmediateAssignment grants (or refuses) a dedicated channel.
type ImmediateAssignment struct {
	Leg     Leg
	MS      sim.NodeID
	Channel uint16
	// Rejected indicates no channel was available (radio congestion).
	Rejected bool
}

// Name implements sim.Message.
func (m ImmediateAssignment) Name() string {
	prefix := "Um_Immediate_Assignment"
	if m.Leg == LegAbis {
		prefix = "Abis_Immediate_Assign_Command"
	}
	if m.Rejected {
		return prefix + "_Reject"
	}
	return prefix
}

// LocationUpdate is the registration request (paper step 1.1). The paper
// names it Um_Location_Update_Request on the air interface and
// Abis_Location_Update / A_Location_Update upstream.
type LocationUpdate struct {
	Leg      Leg
	MS       sim.NodeID
	Identity gsmid.MobileIdentity
	LAI      gsmid.LAI
}

// Name implements sim.Message.
func (m LocationUpdate) Name() string {
	if m.Leg == LegUm {
		return "Um_Location_Update_Request"
	}
	return m.Leg.String() + "_Location_Update"
}

// LocationUpdateAccept completes registration toward the MS (paper step 1.6).
type LocationUpdateAccept struct {
	Leg  Leg
	MS   sim.NodeID
	TMSI gsmid.TMSI
}

// Name implements sim.Message.
func (m LocationUpdateAccept) Name() string { return m.Leg.String() + "_Location_Update_Accept" }

// LocationUpdateReject refuses registration.
type LocationUpdateReject struct {
	Leg   Leg
	MS    sim.NodeID
	Cause uint8
}

// Name implements sim.Message.
func (m LocationUpdateReject) Name() string { return m.Leg.String() + "_Location_Update_Reject" }

// AuthRequest carries the GSM challenge to the MS.
type AuthRequest struct {
	Leg  Leg
	MS   sim.NodeID
	RAND [16]byte
}

// Name implements sim.Message.
func (m AuthRequest) Name() string { return m.Leg.String() + "_Auth_Request" }

// AuthResponse returns the signed response from the SIM.
type AuthResponse struct {
	Leg  Leg
	MS   sim.NodeID
	SRES [4]byte
}

// Name implements sim.Message.
func (m AuthResponse) Name() string { return m.Leg.String() + "_Auth_Response" }

// CipherModeCommand starts ciphering on the radio path.
type CipherModeCommand struct {
	Leg Leg
	MS  sim.NodeID
}

// Name implements sim.Message.
func (m CipherModeCommand) Name() string { return m.Leg.String() + "_Cipher_Mode_Command" }

// CipherModeComplete confirms ciphering.
type CipherModeComplete struct {
	Leg Leg
	MS  sim.NodeID
}

// Name implements sim.Message.
func (m CipherModeComplete) Name() string { return m.Leg.String() + "_Cipher_Mode_Complete" }

// Setup starts a call. Mobile-originated: carries the dialled digits upward
// (paper step 2.1). Mobile-terminated: carries the calling number downward
// (paper step 4.5).
type Setup struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
	Called  gsmid.MSISDN
	Calling gsmid.MSISDN
}

// Name implements sim.Message.
func (m Setup) Name() string { return m.Leg.String() + "_Setup" }

// CallConfirmed acknowledges a mobile-terminated Setup.
type CallConfirmed struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m CallConfirmed) Name() string { return m.Leg.String() + "_Call_Confirmed" }

// Alerting indicates the far party is being rung (paper steps 2.7, 4.6); it
// triggers the ringback tone.
type Alerting struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m Alerting) Name() string { return m.Leg.String() + "_Alerting" }

// Connect indicates the far party answered (paper steps 2.8, 4.7).
type Connect struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m Connect) Name() string { return m.Leg.String() + "_Connect" }

// Disconnect starts call clearing (paper step 3.1).
type Disconnect struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m Disconnect) Name() string { return m.Leg.String() + "_Disconnect" }

// Release clears the call toward the MS.
type Release struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m Release) Name() string { return m.Leg.String() + "_Release" }

// ReleaseComplete finishes call clearing and frees the channel.
type ReleaseComplete struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m ReleaseComplete) Name() string { return m.Leg.String() + "_Release_Complete" }

// IMSIDetach tells the network the MS is powering off (GSM 04.08 IMSI
// detach indication; it has no acknowledgement).
type IMSIDetach struct {
	Leg      Leg
	MS       sim.NodeID
	Identity gsmid.MobileIdentity
}

// Name implements sim.Message.
func (m IMSIDetach) Name() string { return m.Leg.String() + "_IMSI_Detach" }

// Paging seeks an MS for a mobile-terminated call (paper step 4.4: A_Paging
// from the VMSC, Abis_Paging to the BTS, then the BTS pages the MS).
type Paging struct {
	Leg Leg
	MS  sim.NodeID
	// Identity is the paged identity broadcast over the air (TMSI when
	// allocated, never IMSI unless the VLR lost the TMSI).
	Identity gsmid.MobileIdentity
}

// Name implements sim.Message.
func (m Paging) Name() string {
	if m.Leg == LegUm {
		return "Um_Paging_Request"
	}
	return m.Leg.String() + "_Paging"
}

// PagingResponse answers a page (upward).
type PagingResponse struct {
	Leg      Leg
	MS       sim.NodeID
	Identity gsmid.MobileIdentity
}

// Name implements sim.Message.
func (m PagingResponse) Name() string { return m.Leg.String() + "_Paging_Response" }

// TCHFrame is one 20 ms speech frame on the traffic channel. Uplink frames
// flow MS->BTS->BSC->(V)MSC; downlink frames the reverse.
type TCHFrame struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
	Seq     uint32
	// Downlink marks network-to-MS direction.
	Downlink bool
	// Payload is a vocoder frame (codec.FrameBytes long for GSM FR).
	Payload []byte
}

// Name implements sim.Message.
func (m TCHFrame) Name() string { return m.Leg.String() + "_TCH_Frame" }

// MeasurementReport carries the MS's neighbour-cell measurements; a strong
// neighbour triggers handover (Fig 9).
type MeasurementReport struct {
	Leg        Leg
	MS         sim.NodeID
	TargetCell gsmid.CGI
}

// Name implements sim.Message.
func (m MeasurementReport) Name() string { return m.Leg.String() + "_Measurement_Report" }

// HandoverRequired tells the MSC the serving BSC cannot keep the call and
// names the target cell (A interface, BSC->MSC).
type HandoverRequired struct {
	Leg        Leg
	MS         sim.NodeID
	CallRef    uint32
	TargetCell gsmid.CGI
}

// Name implements sim.Message.
func (m HandoverRequired) Name() string { return m.Leg.String() + "_Handover_Required" }

// HandoverCommand orders the MS to the target cell/channel.
type HandoverCommand struct {
	Leg        Leg
	MS         sim.NodeID
	CallRef    uint32
	TargetCell gsmid.CGI
	// TargetBTS is the node the MS must access next — the simulation's
	// stand-in for the radio channel description in the command.
	TargetBTS sim.NodeID
	Channel   uint16
}

// Name implements sim.Message.
func (m HandoverCommand) Name() string { return m.Leg.String() + "_Handover_Command" }

// HandoverAccess is the MS's first burst on the target cell.
type HandoverAccess struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m HandoverAccess) Name() string { return m.Leg.String() + "_Handover_Access" }

// HandoverComplete confirms the MS arrived on the target system.
type HandoverComplete struct {
	Leg     Leg
	MS      sim.NodeID
	CallRef uint32
}

// Name implements sim.Message.
func (m HandoverComplete) Name() string { return m.Leg.String() + "_Handover_Complete" }

// LLCFrame carries a GPRS logical-link-control PDU between a GPRS MS and
// the BSC's packet control unit, which relays it over Gb (Fig 1 data path).
type LLCFrame struct {
	Leg  Leg
	MS   sim.NodeID
	TLLI gsmid.TLLI
	// Downlink marks network-to-MS direction.
	Downlink bool
	Payload  []byte
}

// Name implements sim.Message.
func (m LLCFrame) Name() string { return m.Leg.String() + "_LLC_Frame" }

// Interface-compliance assertions.
var (
	_ sim.Message = ChannelRequest{}
	_ sim.Message = ImmediateAssignment{}
	_ sim.Message = LocationUpdate{}
	_ sim.Message = LocationUpdateAccept{}
	_ sim.Message = LocationUpdateReject{}
	_ sim.Message = AuthRequest{}
	_ sim.Message = AuthResponse{}
	_ sim.Message = CipherModeCommand{}
	_ sim.Message = CipherModeComplete{}
	_ sim.Message = Setup{}
	_ sim.Message = CallConfirmed{}
	_ sim.Message = Alerting{}
	_ sim.Message = Connect{}
	_ sim.Message = Disconnect{}
	_ sim.Message = Release{}
	_ sim.Message = ReleaseComplete{}
	_ sim.Message = IMSIDetach{}
	_ sim.Message = Paging{}
	_ sim.Message = PagingResponse{}
	_ sim.Message = TCHFrame{}
	_ sim.Message = (*TCHFrame)(nil)
	_ sim.Message = MeasurementReport{}
	_ sim.Message = HandoverRequired{}
	_ sim.Message = HandoverCommand{}
	_ sim.Message = HandoverAccess{}
	_ sim.Message = HandoverComplete{}
	_ sim.Message = LLCFrame{}
)
