package netsim

import (
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// The paper's message-flow figures, each once, as trace.Flows over the node
// names the builders give. The figure tests check a recorded run against
// them, and the experiments read their phase boundaries from the entries
// they match (trace.Match.Span on the step IDs). Notes are the paper's step
// labels. A step with no After follows the step before it; After marks a
// fork or a join, where the figure's branches run concurrently.

// Fig2VoicePath is one uplink speech frame on Fig 2(b)'s voice path
// (1)(2)(5)(6)(4): circuit switched to the VMSC, then packets to the GGSN.
var Fig2VoicePath = trace.Flow{
	{Msg: "Um_TCH_Frame", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "(1)"},
	{Msg: "Abis_TCH_Frame", From: "BTS-1", To: "BSC-1", Iface: "Abis", Note: "(2)"},
	{Msg: "A_TCH_Frame", From: "BSC-1", To: "VMSC-1", Iface: "A", Note: "(5)"},
	{Msg: "Gb_UL_UNITDATA", From: "VMSC-1", To: "SGSN-1", Iface: "Gb", Note: "(6)"},
	{Msg: "GTP T-PDU", From: "SGSN-1", To: "GGSN-1", Iface: "Gn", Note: "(4)"},
}

// Fig4Registration is the registration of Fig 4, steps 1.1-1.6. Step IDs:
// "lu" (the MS's request), "lu-ack" (the VLR's answer, end of 1.2),
// "attach" and "pdp" (the VMSC's GPRS attach and its signalling context's
// accept, the bounds of 1.3), "rrq" and "rcf" (1.4 and 1.5 through the
// tunnel) and "accept" (the MS's accept, 1.6).
var Fig4Registration = trace.Flow{
	// Step 1.1: location update up the radio path, MAP to the VLR.
	{Msg: "Um_Location_Update_Request", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "1.1", ID: "lu"},
	{Msg: "Abis_Location_Update", From: "BTS-1", To: "BSC-1", Iface: "Abis", Note: "1.1"},
	{Msg: "A_Location_Update", From: "BSC-1", To: "VMSC-1", Iface: "A", Note: "1.1"},
	{Msg: "MAP_UPDATE_LOCATION_AREA", From: "VMSC-1", To: "VLR-1", Iface: "B", Note: "1.1"},
	// Step 1.2: HLR update, profile insertion, ack to the VMSC.
	{Msg: "MAP_UPDATE_LOCATION", From: "VLR-1", To: "HLR", Iface: "D", Note: "1.2"},
	{Msg: "MAP_INSERT_SUBS_DATA", From: "HLR", To: "VLR-1", Note: "1.2"},
	{Msg: "MAP_UPDATE_LOCATION_AREA_ack", From: "VLR-1", To: "VMSC-1", Note: "1.2", ID: "lu-ack"},
	// Step 1.3: GPRS attach and signalling PDP context activation,
	// performed by the VMSC "just like a GPRS MS does".
	{Msg: "GPRS Attach Request", From: "VMSC-1", To: "SGSN-1", Note: "1.3", ID: "attach"},
	{Msg: "MAP_UPDATE_GPRS_LOCATION", From: "SGSN-1", To: "HLR", Note: "1.3"},
	{Msg: "Activate PDP Context Request", From: "VMSC-1", To: "SGSN-1", Note: "1.3"},
	{Msg: "GTP Create PDP Context Request", From: "SGSN-1", To: "GGSN-1", Note: "1.3"},
	{Msg: "MAP_SEND_ROUTING_INFO_FOR_GPRS", From: "GGSN-1", To: "HLR", Iface: "Gc", Note: "1.3"},
	{Msg: "GTP Create PDP Context Response", From: "GGSN-1", To: "SGSN-1", Note: "1.3"},
	{Msg: "Activate PDP Context Accept", From: "SGSN-1", To: "VMSC-1", Note: "1.3", ID: "pdp"},
	// Steps 1.4-1.5: gatekeeper registration.
	{Msg: "RAS RRQ", From: "VMSC-1", To: "GK", Iface: "RAS", Note: "1.4", ID: "rrq"},
	{Msg: "RAS RCF", From: "GK", To: "VMSC-1", Iface: "RAS", Note: "1.5", ID: "rcf"},
	// Step 1.6: accept to the MS.
	{Msg: "A_Location_Update_Accept", From: "VMSC-1", To: "BSC-1", Note: "1.6"},
	{Msg: "Um_Location_Update_Accept", From: "BTS-1", To: "MS-1", Note: "1.6", ID: "accept"},
}

// Fig5Call is the mobile-originated call of Fig 5: origination, steps
// 2.1-2.9, and the MS's release, steps 3.1-3.4.
var Fig5Call = trace.Flow{
	// Step 2.1: channel assignment, then the dialled digits.
	{Msg: "Um_Channel_Request", From: "MS-1", Note: "2.1"},
	{Msg: "Um_Immediate_Assignment", To: "MS-1", Note: "2.1"},
	{Msg: "Um_Setup", From: "MS-1", To: "BTS-1", Iface: "Um", Note: "2.1"},
	{Msg: "A_Setup", From: "BSC-1", To: "VMSC-1", Note: "2.1"},
	// Step 2.2: outgoing-call authorization.
	{Msg: "MAP_SEND_INFO_FOR_OUTGOING_CALL", From: "VMSC-1", To: "VLR-1", Note: "2.2"},
	{Msg: "MAP_SEND_INFO_FOR_OUTGOING_CALL_ack", From: "VLR-1", Note: "2.2"},
	// Step 2.3: admission and address translation.
	{Msg: "RAS ARQ", From: "VMSC-1", To: "GK", Note: "2.3"},
	{Msg: "RAS ACF", From: "GK", To: "VMSC-1", Note: "2.3"},
	// Steps 2.4-2.5: the terminal answers Setup with Call Proceeding and
	// asks for its own admission; it alerts once both are done.
	{Msg: "Q.931 Setup", From: "VMSC-1", To: "TERM-1", Iface: "H.225", Note: "2.4", ID: "setup"},
	{Msg: "Q.931 Call Proceeding", From: "TERM-1", To: "VMSC-1", Note: "2.4", ID: "proceeding"},
	{Msg: "RAS ARQ", From: "TERM-1", To: "GK", Note: "2.5", After: []string{"setup"}},
	{Msg: "RAS ACF", From: "GK", To: "TERM-1", Note: "2.5", ID: "term-acf"},
	// Steps 2.6-2.7: alerting toward the MS (ringback).
	{Msg: "Q.931 Alerting", From: "TERM-1", To: "VMSC-1", Note: "2.6", After: []string{"proceeding", "term-acf"}},
	{Msg: "A_Alerting", From: "VMSC-1", To: "BSC-1", Note: "2.7"},
	{Msg: "Abis_Alerting", From: "BSC-1", To: "BTS-1", Note: "2.7"},
	{Msg: "Um_Alerting", From: "BTS-1", To: "MS-1", Note: "2.7"},
	// Step 2.8: answer. The VMSC relays Connect down the radio path and
	// activates the voice PDP context (2.9) at the same time.
	{Msg: "Q.931 Connect", From: "TERM-1", To: "VMSC-1", Note: "2.8", ID: "connect"},
	{Msg: "A_Connect", From: "VMSC-1", To: "BSC-1", Note: "2.8"},
	{Msg: "Um_Connect", To: "MS-1", Note: "2.8", ID: "um-connect"},
	{Msg: "Activate PDP Context Request", From: "VMSC-1", Note: "2.9", After: []string{"connect"}},
	{Msg: "GTP Create PDP Context Request", From: "SGSN-1", To: "GGSN-1", Note: "2.9", ID: "voice-pdp"},
	// Step 3.1: the MS hangs up.
	{Msg: "Um_Disconnect", From: "MS-1", Note: "3.1", After: []string{"um-connect"}},
	{Msg: "A_Disconnect", To: "VMSC-1", Note: "3.1", ID: "disconnect"},
	// Steps 3.2-3.4 and the radio release run as four branches: the
	// VMSC's disengage; Release Complete and the terminal's disengage;
	// the voice context's deactivation; the radio channel's release.
	{Msg: "RAS DRQ", From: "VMSC-1", To: "GK", Note: "3.3"},
	{Msg: "RAS DCF", From: "GK", To: "VMSC-1", Note: "3.3"},
	{Msg: "Q.931 Release Complete", From: "VMSC-1", To: "TERM-1", Note: "3.2", After: []string{"disconnect"}},
	{Msg: "RAS DRQ", From: "TERM-1", To: "GK", Note: "3.3"},
	{Msg: "RAS DCF", From: "GK", To: "TERM-1", Note: "3.3"},
	{Msg: "Deactivate PDP Context Request", From: "VMSC-1", Note: "3.4", After: []string{"disconnect", "voice-pdp"}},
	{Msg: "GTP Delete PDP Context Request", From: "SGSN-1", To: "GGSN-1", Note: "3.4"},
	{Msg: "A_Release", From: "VMSC-1", To: "BSC-1", After: []string{"disconnect"}},
	{Msg: "Um_Release", To: "MS-1"},
	{Msg: "A_Release_Complete", From: "BSC-1", To: "VMSC-1"},
}

// Fig6Termination is the mobile-terminated call of Fig 6, steps 4.1-4.8.
var Fig6Termination = trace.Flow{
	// Step 4.1: the caller's ARQ; the GK translates the MSISDN to the
	// MS's IP address.
	{Msg: "RAS ARQ", From: "TERM-1", To: "GK", Note: "4.1"},
	{Msg: "RAS ACF", From: "GK", To: "TERM-1", Note: "4.1"},
	// Step 4.2: Setup through the GGSN (routed by the PDP context); the
	// VMSC answers Call Proceeding and asks for admission (4.3) at once.
	{Msg: "Q.931 Setup", From: "TERM-1", To: "VMSC-1", Iface: "H.225", Note: "4.2"},
	{Msg: "GTP T-PDU", From: "GGSN-1", To: "SGSN-1", Note: "4.2"},
	{Msg: "Gb_DL_UNITDATA", From: "SGSN-1", To: "VMSC-1", Note: "4.2", ID: "setup-in"},
	{Msg: "Q.931 Call Proceeding", From: "VMSC-1", To: "TERM-1", Note: "4.2"},
	{Msg: "RAS ARQ", From: "VMSC-1", To: "GK", Note: "4.3", After: []string{"setup-in"}},
	{Msg: "RAS ACF", From: "GK", To: "VMSC-1", Note: "4.3"},
	// Step 4.4: paging.
	{Msg: "A_Paging", From: "VMSC-1", To: "BSC-1", Note: "4.4"},
	{Msg: "Abis_Paging", From: "BSC-1", To: "BTS-1", Note: "4.4"},
	{Msg: "Um_Paging_Request", From: "BTS-1", To: "MS-1", Note: "4.4"},
	// Step 4.5: paging response, then Setup to the MS.
	{Msg: "Um_Paging_Response", From: "MS-1", Note: "4.5"},
	{Msg: "A_Setup", From: "VMSC-1", To: "BSC-1", Note: "4.5"},
	{Msg: "Um_Setup", From: "BTS-1", To: "MS-1", Note: "4.5"},
	// Step 4.6: the MS rings; alerting to the terminal (ringback).
	{Msg: "Um_Alerting", From: "MS-1", Note: "4.6"},
	{Msg: "Q.931 Alerting", From: "VMSC-1", To: "TERM-1", Note: "4.6"},
	// Steps 4.7-4.8: answer; the VMSC relays Connect to the terminal and
	// activates the voice PDP context at the same time.
	{Msg: "Um_Connect", From: "MS-1", Note: "4.7"},
	{Msg: "A_Connect", From: "BSC-1", To: "VMSC-1", Note: "4.7", ID: "connect"},
	{Msg: "Q.931 Connect", From: "VMSC-1", To: "TERM-1", Note: "4.7"},
	{Msg: "Activate PDP Context Request", From: "VMSC-1", Note: "4.8", After: []string{"connect"}},
}

// Fig7Trombone is a call from y to the roamer x in classic GSM (Fig 7): to
// the UK GMSC over arrow (1), the HLR interrogation, and back to Hong Kong
// over arrow (2).
var Fig7Trombone = trace.Flow{
	{Msg: "ISUP_IAM", From: "PHONE-Y", To: "LE-HK"},
	{Msg: "ISUP_IAM", From: "LE-HK", To: "GMSC-UK", Note: "(1)"},
	{Msg: "MAP_SEND_ROUTING_INFORMATION", From: "GMSC-UK", To: "HLR-UK"},
	{Msg: "MAP_PROVIDE_ROAMING_NUMBER", From: "HLR-UK", To: "VLR-HK"},
	{Msg: "ISUP_IAM", From: "GMSC-UK", To: "MSC-HK", Note: "(2)"},
	{Msg: "Um_Connect", From: "MS-X"},
}

// Fig8Local is the same call in vGPRS (Fig 8): local routing to the
// gateway (1), the gatekeeper table probe (2) and VoIP setup toward the
// VMSC (3).
var Fig8Local = trace.Flow{
	{Msg: "ISUP_IAM", From: "PHONE-Y", To: "LE-HK"},
	{Msg: "ISUP_IAM", From: "LE-HK", To: "GW-HK", Note: "(1)"},
	{Msg: "RAS LRQ", From: "GW-HK", To: "GK-HK", Note: "(2)"},
	{Msg: "RAS LCF", From: "GK-HK", To: "GW-HK"},
	{Msg: "Q.931 Setup", From: "GW-HK", Note: "(3)"},
	{Msg: "Um_Connect", From: "MS-X"},
}

// Fig8GKMiss is Fig 8's fallback: the gatekeeper does not know the called
// number, so the exchange routes the call internationally as plain PSTN.
var Fig8GKMiss = trace.Flow{
	{Msg: "RAS LRQ", From: "GW-HK", To: "GK-HK", Note: "(2)"},
	{Msg: "RAS LRJ", From: "GK-HK", To: "GW-HK"},
	{Msg: "ISUP_IAM", From: "LE-HK", To: "GMSC-UK"},
}

// Fig9Handoff is the inter-system handoff of Fig 9 from the anchor VMSC-1
// to target: a legacy MSC, or a second VMSC, which §7 says "follows the
// same procedure". Step IDs "required" and "end" bound the execution.
func Fig9Handoff(target sim.NodeID) trace.Flow {
	return trace.Flow{
		{Msg: "Um_Measurement_Report", From: "MS-1"},
		{Msg: "A_Handover_Required", To: "VMSC-1", ID: "required"},
		{Msg: "MAP_PREPARE_HANDOVER", From: "VMSC-1", To: target, Iface: "E"},
		{Msg: "MAP_PREPARE_HANDOVER_ack", From: target, To: "VMSC-1", ID: "prepared"},
		// The E trunk toward the target and the command to the MS.
		{Msg: "ISUP_IAM", From: "VMSC-1", To: target},
		{Msg: "Um_Handover_Command", To: "MS-1", After: []string{"prepared"}},
		{Msg: "Um_Handover_Complete", From: "MS-1", To: "BTS-2"},
		{Msg: "MAP_SEND_END_SIGNAL", From: target, To: "VMSC-1", ID: "end"},
	}
}

// Handback is the GSM 03.09 subsequent handover after Fig 9 that brings the
// MS from relay's cell back to the anchor's: the relay asks the anchor over
// MAP E, and the anchor releases the E trunk once the MS is home. Step IDs
// "required" and "complete" bound the execution.
func Handback(relay sim.NodeID) trace.Flow {
	return trace.Flow{
		{Msg: "Um_Measurement_Report", From: "MS-1", To: "BTS-2"},
		{Msg: "A_Handover_Required", To: relay, ID: "required"},
		{Msg: "MAP_PREPARE_SUBSEQUENT_HANDOVER", From: relay, To: "VMSC-1", Iface: "E"},
		{Msg: "MAP_PREPARE_SUBSEQUENT_HANDOVER_ack", From: "VMSC-1", To: relay},
		{Msg: "Um_Handover_Command", To: "MS-1"},
		{Msg: "Um_Handover_Complete", From: "MS-1", To: "BTS-1", ID: "complete"},
		{Msg: "ISUP_REL", From: "VMSC-1", To: relay},
	}
}

// TRMOCall is TR 23.923's mobile-originated call: the MS's ARQ waits for a
// per-call PDP context activation, the §6 setup-latency cost.
var TRMOCall = trace.Flow{
	{Msg: "RAS ARQ", From: "MS-1", To: "GK"},
	{Msg: "Activate PDP Context Request", To: "SGSN-1"},
	{Msg: "GTP Create PDP Context Request", From: "SGSN-1", To: "GGSN-1"},
	{Msg: "RAS ACF", From: "GK"},
	{Msg: "Q.931 Setup", From: "MS-1", To: "TERM-1"},
	{Msg: "Q.931 Connect", From: "TERM-1"},
}

// TRMTCall is TR 23.923's mobile-terminated call: the Setup reaches the
// GGSN with no context to carry it, so the network asks the MS to activate
// one first.
var TRMTCall = trace.Flow{
	{Msg: "Q.931 Setup", From: "TERM-1"},
	{Msg: "MAP_SEND_ROUTING_INFO_FOR_GPRS", From: "GGSN-1", To: "HLR"},
	{Msg: "GTP PDU Notification Request", From: "GGSN-1", To: "SGSN-1"},
	{Msg: "Request PDP Context Activation", From: "SGSN-1"},
	{Msg: "Activate PDP Context Request", To: "SGSN-1"},
	{Msg: "Q.931 Connect", From: "MS-1", To: "TERM-1"},
}
