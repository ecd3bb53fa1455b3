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

// A plain step list is a chain, so ExpectFlow expects a sequence: these
// check it in order, around interleaved entries, and against the wrong order
// or the wrong sender.
func TestExpectSequenceInOrder(t *testing.T) {
	r := sampleTrace()
	m, err := r.ExpectFlow(Flow{
		{Msg: "Um_Location_Update_Request", From: "MS", To: "BTS", Iface: "Um", Note: "1.1", ID: "lu"},
		{Msg: "MAP_UPDATE_LOCATION", Note: "1.2"},
		{Msg: "RAS RCF", From: "GK", Note: "1.5", ID: "rcf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Span("lu", "rcf"); got != 6*time.Millisecond {
		t.Fatalf("Span(lu, rcf) = %v, want 6ms", got)
	}
}

func TestExpectSequenceSkipsInterleaved(t *testing.T) {
	r := sampleTrace()
	// Only pin two distant steps; the rest are interleaved noise.
	if _, err := r.ExpectFlow(Flow{{Msg: "Abis_Location_Update"}, {Msg: "RAS RRQ"}}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectSequenceOutOfOrderFails(t *testing.T) {
	r := sampleTrace()
	_, err := r.ExpectFlow(Flow{{Msg: "RAS RCF"}, {Msg: "Um_Location_Update_Request"}})
	if err == nil {
		t.Fatal("expected out-of-order failure")
	}
	if !strings.Contains(err.Error(), "Um_Location_Update_Request") {
		t.Fatalf("error should name the failing step: %v", err)
	}
}

func TestExpectSequenceWrongEndpointFails(t *testing.T) {
	r := sampleTrace()
	if _, err := r.ExpectFlow(Flow{{Msg: "RAS RRQ", From: "GK"}}); err == nil { // sent by the VMSC
		t.Fatal("expected endpoint mismatch failure")
	}
}

// forkTrace records a release fork: after the disconnect, one branch
// disengages the VMSC (DRQ, DCF) and the other releases the terminal.
func forkTrace(order ...string) *Recorder {
	entries := map[string][4]string{
		"disc": {"BSC", "VMSC", "A", "A_Disconnect"},
		"drq":  {"VMSC", "GK", "RAS", "RAS DRQ"},
		"dcf":  {"GK", "VMSC", "RAS", "RAS DCF"},
		"rlc":  {"VMSC", "TERM", "H.225", "Q.931 Release Complete"},
		"tdrq": {"TERM", "GK", "RAS", "RAS DRQ"},
	}
	r := NewRecorder()
	for i, k := range order {
		e := entries[k]
		record(r, time.Duration(i)*time.Millisecond, sim.NodeID(e[0]), sim.NodeID(e[1]), e[2], e[3])
	}
	return r
}

var forkFlow = Flow{
	{Msg: "A_Disconnect", To: "VMSC", ID: "disc"},
	{Msg: "RAS DRQ", From: "VMSC", To: "GK"},
	{Msg: "RAS DCF", From: "GK", To: "VMSC", ID: "dcf"},
	{Msg: "Q.931 Release Complete", From: "VMSC", To: "TERM", After: []string{"disc"}},
	{Msg: "RAS DRQ", From: "TERM", To: "GK", ID: "tdrq"},
}

// TestFlowSwaps replays the fork in several orders: entries of independent
// branches swapped pass, a dependent pair swapped fails.
func TestFlowSwaps(t *testing.T) {
	for _, tc := range []struct {
		order []string
		ok    bool
	}{
		{[]string{"disc", "drq", "dcf", "rlc", "tdrq"}, true},
		{[]string{"disc", "rlc", "drq", "tdrq", "dcf"}, true},
		{[]string{"disc", "rlc", "tdrq", "drq", "dcf"}, true},
		{[]string{"disc", "dcf", "drq", "rlc", "tdrq"}, false},
		{[]string{"disc", "drq", "dcf", "tdrq", "rlc"}, false},
		{[]string{"drq", "disc", "dcf", "rlc", "tdrq"}, false},
	} {
		m, err := forkTrace(tc.order...).ExpectFlow(forkFlow)
		if (err == nil) != tc.ok {
			t.Errorf("%v: err = %v, want ok = %v", tc.order, err, tc.ok)
		} else if tc.ok && (m.Entries[4].From != "TERM" || m.Span("disc", "dcf") <= 0) {
			t.Errorf("%v: matched %v", tc.order, m.Entries)
		}
	}
}

func TestFlowRejectsInvalid(t *testing.T) {
	for name, tc := range map[string]struct {
		flow Flow
		want string
	}{
		"cycle": {Flow{
			{Msg: "A", ID: "a", After: []string{"b"}},
			{Msg: "B", ID: "b"},
		}, "no cycle can form"},
		"unknown predecessor": {Flow{
			{Msg: "A", ID: "a"},
			{Msg: "B", After: []string{"nope"}},
		}, `unknown step "nope"`},
		"duplicate ID": {Flow{{Msg: "A", ID: "a"}, {Msg: "B", ID: "a"}}, "two steps"},
		"overlapping concurrent steps": {Flow{
			{Msg: "A_Disconnect", ID: "disc"},
			{Msg: "RAS DRQ", From: "VMSC"},
			{Msg: "RAS DRQ", To: "GK", After: []string{"disc"}},
		}, "could match the same entry"},
	} {
		err := tc.flow.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.want)
		}
		if _, err := sampleTrace().ExpectFlow(tc.flow); err == nil {
			t.Errorf("%s: ExpectFlow accepted an invalid flow", name)
		}
	}
	// Distinct senders keep the two DRQs apart: the fork is valid.
	if err := forkFlow.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFlowFailureShowsWindow buries a missing step in a long trace: the
// error names the step and where its predecessor matched, and prints a
// bounded window, not the whole trace.
func TestFlowFailureShowsWindow(t *testing.T) {
	r := NewRecorder()
	record(r, 0, "VMSC", "GK", "RAS", "RAS DRQ")
	for i := 1; i <= 5000; i++ {
		record(r, time.Duration(i)*20*time.Millisecond, "MS", "BTS", "Um", "Um_TCH_Frame")
	}
	_, err := r.ExpectFlow(Flow{
		{Msg: "RAS DRQ", From: "VMSC", Note: "3.3"},
		{Msg: "RAS DCF", To: "VMSC", Note: "3.3"},
	})
	if err == nil {
		t.Fatal("missing DCF passed")
	}
	msg := err.Error()
	for _, want := range []string{"[step 3.3] RAS DCF ( -> VMSC)", "after [step 3.3] RAS DRQ (VMSC -> ): entry 0 at 0s", "of 5001"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
	if lines := strings.Count(msg, "\n"); lines > flowWindow+4 {
		t.Errorf("error has %d lines, want at most %d", lines, flowWindow+4)
	}
}

func TestCounters(t *testing.T) {
	r := sampleTrace()
	if got := r.CountMessages("RAS RRQ"); got != 1 {
		t.Errorf("CountMessages = %d", got)
	}
	byIface := r.MessagesByInterface()
	if byIface["Um"] != 1 || byIface["IP"] != 2 {
		t.Errorf("MessagesByInterface = %v", byIface)
	}
	if r.Len() != 7 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestFirst(t *testing.T) {
	r := NewRecorder()
	record(r, 1*time.Millisecond, "a", "b", "x", "M")
	record(r, 9*time.Millisecond, "c", "d", "x", "M")
	if e, ok := r.First(Step{Msg: "M"}); !ok || e.At != time.Millisecond {
		t.Fatalf("First(M) = %+v, %v", e, ok)
	}
	if e, ok := r.First(Step{Msg: "M", To: "d"}); !ok || e.At != 9*time.Millisecond {
		t.Fatalf("First(M to d) = %+v, %v", e, ok)
	}
	if _, ok := r.First(Step{Msg: "missing"}); ok {
		t.Fatal("First(missing) should report false")
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
	s := Step{Msg: "X", From: "a", To: "b", Iface: "A", Note: "2.1"}.String()
	if s != "[step 2.1] X (a -> b) on A" {
		t.Fatalf("Step.String = %q", s)
	}
}
