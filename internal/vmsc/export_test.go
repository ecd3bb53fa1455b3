package vmsc

import (
	"reflect"

	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/msc"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
)

// RowType is the MS-table row's type, for the size and field-type budgets.
var RowType = reflect.TypeOf(msEntry{})

// VoiceBufferCap returns the capacity of the uplink LLC framing buffer
// reachable from a subscriber's row — through its call, the only place one
// may hang — and whether the row holds a call at all.
func (v *VMSC) VoiceBufferCap(imsi gsmid.IMSI) (bytes int, inCall bool) {
	_, e := v.byIMSI.Get(imsi.Pack())
	if e == nil || e.call == nil {
		return 0, false
	}
	return cap(e.call.med.llcBuf), true
}

// RowHandle returns the handle of a subscriber's MS-table row (zero if absent).
func (v *VMSC) RowHandle(imsi gsmid.IMSI) slab.Handle {
	if _, e := v.byIMSI.Get(imsi.Pack()); e != nil {
		return e.self
	}
	return 0
}

// RASRecordSize and Q931RecordSize are what one RAS request and one Q.931
// cycle of a row occupy in the VMSC's H.225.0 tables.
var RASRecordSize, Q931RecordSize = h323.RecordSizes[*rowHost, *vCall]()

var (
	rowStates = [...]string{rowResident: "resident", rowRegistering: "registering",
		rowRegistered: "registered", rowReregistering: "reregistering",
		rowDeregistering: "deregistering", rowPurging: "purging"}
	callStates = [...]string{callRouting: "routing", callPaging: "paging",
		callDelivering: "delivering", callConnecting: "connecting",
		callActive: "active", callHandedOver: "handed-over", callReleased: "released"}
)

// RowState names the state of a subscriber's row, "" if it has none, and
// reports whether the row's GPRS attach has completed.
func (v *VMSC) RowState(imsi gsmid.IMSI) (state string, attached bool) {
	_, e := v.byIMSI.Get(imsi.Pack())
	if e == nil {
		return "", false
	}
	return rowStates[e.state], e.gmm.Attached()
}

// CallState names the state of the call on a subscriber's row ("" if none)
// and returns its Q.931 and handover call references. A call delivered to a
// called party that rings reads "alerting": the ringing is its leg's.
func (v *VMSC) CallState(imsi gsmid.IMSI) (state string, ref uint16, hoRef uint32) {
	_, e := v.byIMSI.Get(imsi.Pack())
	if e == nil || e.call == nil {
		return "", 0, 0
	}
	state = callStates[e.call.state]
	if e.call.state == callDelivering && e.call.leg.State == h323.LegAlerting {
		state = "alerting"
	}
	return state, e.call.leg.Ref, e.call.hoRef
}

// RowTLLI is the TLLI a subscriber's row currently uses on Gb.
func (v *VMSC) RowTLLI(imsi gsmid.IMSI) gsmid.TLLI {
	_, e := v.byIMSI.Get(imsi.Pack())
	return v.client(e).TLLI()
}

// LocationUpdated hands the VMSC the VLR's acceptance of a location update
// from ms under bsc, as the registrar does at the end of Fig 4 step 1.2.
func (v *VMSC) LocationUpdated(env *sim.Env, imsi gsmid.IMSI, ms, bsc sim.NodeID) {
	_, e := v.byIMSI.Get(imsi.Pack())
	v.onVLROutcome(env, msc.Registration{MS: ms, BSC: bsc, IMSI: imsi, TMSI: e.tmsi, MSISDN: e.msisdnKey.MSISDN()})
}

// Reregister starts the silent full RRQ a registered row sends when the
// gatekeeper answers a keep-alive with "full registration required".
func (v *VMSC) Reregister(env *sim.Env, imsi gsmid.IMSI) {
	_, e := v.byIMSI.Get(imsi.Pack())
	e.state = rowReregistering
	v.sendRRQ(env, e, false)
}
