// Package trace records every message delivery in a simulation and provides
// sequence assertions used by the figure-flow tests. A reproduction of one of
// the paper's message-flow figures (Figs 4-6) is expressed as an ExpectStep
// list; the test fails if the live network deviates from the published flow.
package trace

import (
	"fmt"
	"strings"
	"time"

	"vgprs/internal/sim"
)

// Entry is one recorded message delivery.
type Entry struct {
	At    time.Duration
	From  sim.NodeID
	To    sim.NodeID
	Iface string
	Msg   sim.Message
}

// String formats the entry like a line of the paper's figures:
// "12ms  MS -> BTS  [Um]  Um_Location_Update_Request".
func (e Entry) String() string {
	return fmt.Sprintf("%8s  %-12s -> %-12s [%-5s] %s",
		e.At.Round(time.Microsecond), e.From, e.To, e.Iface, e.Msg.Name())
}

// Recorder is a sim.Tracer that stores every delivery.
type Recorder struct {
	entries []Entry
}

var _ sim.Tracer = (*Recorder)(nil)

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Trace implements sim.Tracer.
func (r *Recorder) Trace(at time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	r.entries = append(r.entries, Entry{At: at, From: from, To: to, Iface: iface, Msg: msg})
}

// Entries returns a copy of all recorded entries in delivery order.
func (r *Recorder) Entries() []Entry {
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Len returns the number of recorded entries.
func (r *Recorder) Len() int {
	return len(r.entries)
}

// Reset discards all recorded entries.
func (r *Recorder) Reset() {
	r.entries = r.entries[:0]
}

// Dump renders the full trace, one entry per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountMessages returns how many recorded messages have the given name.
func (r *Recorder) CountMessages(name string) int {
	n := 0
	for _, e := range r.entries {
		if e.Msg.Name() == name {
			n++
		}
	}
	return n
}

// CountOnInterface returns how many messages crossed the named interface.
func (r *Recorder) CountOnInterface(iface string) int {
	n := 0
	for _, e := range r.entries {
		if e.Iface == iface {
			n++
		}
	}
	return n
}

// MessagesByInterface returns a map from interface name to message count —
// the per-interface signalling-load table used by experiment C5.
func (r *Recorder) MessagesByInterface() map[string]int {
	out := make(map[string]int)
	for _, e := range r.entries {
		out[e.Iface]++
	}
	return out
}

// First returns the first entry whose message has the given name, and
// whether one exists.
func (r *Recorder) First(name string) (Entry, bool) {
	for _, e := range r.entries {
		if e.Msg.Name() == name {
			return e, true
		}
	}
	return Entry{}, false
}

// FirstMatch returns the first entry matching the step's full criteria
// (message name, endpoints, interface).
func (r *Recorder) FirstMatch(step ExpectStep) (Entry, bool) {
	for _, e := range r.entries {
		if step.matches(e) {
			return e, true
		}
	}
	return Entry{}, false
}

// Last returns the last entry whose message has the given name.
func (r *Recorder) Last(name string) (Entry, bool) {
	entries := r.entries
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Msg.Name() == name {
			return entries[i], true
		}
	}
	return Entry{}, false
}

// ExpectStep describes one step of a published message flow. Empty fields
// match anything, so a step can pin down only what the figure specifies.
type ExpectStep struct {
	// Msg is the expected message name (exact match), e.g. "MAP_UPDATE_LOCATION".
	Msg string
	// From and To, when non-empty, require the message to travel between
	// these nodes.
	From sim.NodeID
	To   sim.NodeID
	// Iface, when non-empty, requires the message to cross this interface.
	Iface string
	// Note labels the step with the paper's step number ("1.3") for
	// readable failure output.
	Note string
}

func (s ExpectStep) String() string {
	var b strings.Builder
	if s.Note != "" {
		fmt.Fprintf(&b, "[step %s] ", s.Note)
	}
	b.WriteString(s.Msg)
	if s.From != "" || s.To != "" {
		fmt.Fprintf(&b, " (%s -> %s)", s.From, s.To)
	}
	if s.Iface != "" {
		fmt.Fprintf(&b, " on %s", s.Iface)
	}
	return b.String()
}

func (s ExpectStep) matches(e Entry) bool {
	if s.Msg != "" && e.Msg.Name() != s.Msg {
		return false
	}
	if s.From != "" && e.From != s.From {
		return false
	}
	if s.To != "" && e.To != s.To {
		return false
	}
	if s.Iface != "" && e.Iface != s.Iface {
		return false
	}
	return true
}

// ExpectSequence checks that steps occur in the trace in order (as a
// subsequence: unrelated messages may be interleaved, exactly as the paper's
// figures elide retransmissions and lower layers). It returns nil if every
// step matched, or an error naming the first unmatched step together with a
// window of the trace to aid debugging.
func (r *Recorder) ExpectSequence(steps []ExpectStep) error {
	entries := r.entries
	i := 0
	for _, step := range steps {
		found := false
		for ; i < len(entries); i++ {
			if step.matches(entries[i]) {
				i++
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("trace: step not found in order: %s\nfull trace:\n%s",
				step, r.Dump())
		}
	}
	return nil
}
