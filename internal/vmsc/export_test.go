package vmsc

import (
	"reflect"

	"vgprs/internal/gsmid"
	"vgprs/internal/h323"
	"vgprs/internal/slab"
)

// RowType is the MS-table row's type, for the size and field-type budgets.
var RowType = reflect.TypeOf(msEntry{})

// VoiceBufferCap returns the capacity of the uplink LLC framing buffer
// reachable from a subscriber's row — through its call, the only place one
// may hang — and whether the row holds a call at all.
func (v *VMSC) VoiceBufferCap(imsi gsmid.IMSI) (bytes int, inCall bool) {
	e := v.entryByIMSI(imsi)
	if e == nil || e.call == nil {
		return 0, false
	}
	return cap(e.call.med.llcBuf), true
}

// RowHandle returns the handle of a subscriber's MS-table row (zero if absent).
func (v *VMSC) RowHandle(imsi gsmid.IMSI) slab.Handle {
	if e := v.entryByIMSI(imsi); e != nil {
		return e.self
	}
	return 0
}

// RASRecordSize and Q931RecordSize are what one RAS request and one Q.931
// cycle of a row occupy in the VMSC's H.225.0 tables.
var RASRecordSize, Q931RecordSize = h323.RecordSizes[*rowHost, *vCall]()
