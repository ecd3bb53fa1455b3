package trace

import (
	"strings"
	"testing"
	"time"

	"vgprs/internal/sim"
)

type msg string

func (m msg) Name() string { return string(m) }

func record(r *Recorder, at time.Duration, from, to sim.NodeID, iface, name string) {
	r.Trace(at, from, to, iface, msg(name))
}

func sampleTrace() *Recorder {
	r := NewRecorder()
	record(r, 1*time.Millisecond, "MS", "BTS", "Um", "Um_Location_Update_Request")
	record(r, 2*time.Millisecond, "BTS", "BSC", "Abis", "Abis_Location_Update")
	record(r, 3*time.Millisecond, "BSC", "VMSC", "A", "A_Location_Update")
	record(r, 4*time.Millisecond, "VMSC", "VLR", "B", "MAP_UPDATE_LOCATION_AREA")
	record(r, 5*time.Millisecond, "VLR", "HLR", "D", "MAP_UPDATE_LOCATION")
	record(r, 6*time.Millisecond, "VMSC", "GK", "IP", "RAS RRQ")
	record(r, 7*time.Millisecond, "GK", "VMSC", "IP", "RAS RCF")
	return r
}

func TestEntriesCopy(t *testing.T) {
	r := sampleTrace()
	es := r.Entries()
	es[0].Iface = "mutated"
	if r.Entries()[0].Iface != "Um" {
		t.Fatal("Entries must return a copy")
	}
}

func TestExpectSequenceInOrder(t *testing.T) {
	r := sampleTrace()
	err := r.ExpectSequence([]ExpectStep{
		{Msg: "Um_Location_Update_Request", From: "MS", To: "BTS", Iface: "Um", Note: "1.1"},
		{Msg: "MAP_UPDATE_LOCATION", Note: "1.2"},
		{Msg: "RAS RCF", From: "GK", Note: "1.5"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExpectSequenceSkipsInterleaved(t *testing.T) {
	r := sampleTrace()
	// Only pin two distant steps; the rest are interleaved noise.
	err := r.ExpectSequence([]ExpectStep{
		{Msg: "Abis_Location_Update"},
		{Msg: "RAS RRQ"},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExpectSequenceOutOfOrderFails(t *testing.T) {
	r := sampleTrace()
	err := r.ExpectSequence([]ExpectStep{
		{Msg: "RAS RCF"},
		{Msg: "Um_Location_Update_Request"},
	})
	if err == nil {
		t.Fatal("expected out-of-order failure")
	}
	if !strings.Contains(err.Error(), "Um_Location_Update_Request") {
		t.Fatalf("error should name the failing step: %v", err)
	}
}

func TestExpectSequenceWrongEndpointFails(t *testing.T) {
	r := sampleTrace()
	err := r.ExpectSequence([]ExpectStep{
		{Msg: "RAS RRQ", From: "GK"}, // actually sent by VMSC
	})
	if err == nil {
		t.Fatal("expected endpoint mismatch failure")
	}
}

func TestCounters(t *testing.T) {
	r := sampleTrace()
	if got := r.CountMessages("RAS RRQ"); got != 1 {
		t.Errorf("CountMessages = %d", got)
	}
	if got := r.CountOnInterface("IP"); got != 2 {
		t.Errorf("CountOnInterface(IP) = %d", got)
	}
	byIface := r.MessagesByInterface()
	if byIface["Um"] != 1 || byIface["IP"] != 2 {
		t.Errorf("MessagesByInterface = %v", byIface)
	}
	if r.Len() != 7 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestFirstLast(t *testing.T) {
	r := NewRecorder()
	record(r, 1*time.Millisecond, "a", "b", "x", "M")
	record(r, 9*time.Millisecond, "c", "d", "x", "M")
	first, ok := r.First("M")
	if !ok || first.At != time.Millisecond {
		t.Fatalf("First = %+v, %v", first, ok)
	}
	last, ok := r.Last("M")
	if !ok || last.At != 9*time.Millisecond {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	if _, ok := r.First("missing"); ok {
		t.Fatal("First(missing) should report false")
	}
	if _, ok := r.Last("missing"); ok {
		t.Fatal("Last(missing) should report false")
	}
}

func TestReset(t *testing.T) {
	r := sampleTrace()
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestDumpAndStrings(t *testing.T) {
	r := sampleTrace()
	dump := r.Dump()
	if !strings.Contains(dump, "MAP_UPDATE_LOCATION") || !strings.Contains(dump, "[Um") {
		t.Fatalf("Dump missing content:\n%s", dump)
	}
	s := ExpectStep{Msg: "X", From: "a", To: "b", Iface: "A", Note: "2.1"}.String()
	if !strings.Contains(s, "step 2.1") || !strings.Contains(s, "a -> b") {
		t.Fatalf("ExpectStep.String = %q", s)
	}
}
