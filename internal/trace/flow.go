package trace

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"vgprs/internal/sim"
)

// Step is one step of a published message flow. Empty match fields match
// anything, so a step pins down only what the figure specifies.
type Step struct {
	// Msg is the message name (exact match), e.g. "MAP_UPDATE_LOCATION".
	Msg string
	// From and To, when non-empty, are the sending and receiving nodes.
	From sim.NodeID
	To   sim.NodeID
	// Iface, when non-empty, is the interface the message crosses.
	Iface string
	// Note is the paper's label for the step ("1.3"), for failure output.
	Note string
	// ID names the step for other steps' After lists and for Match.Span.
	ID string
	// After lists the IDs of the steps this one happens after. Nil means
	// the step before it in the flow, so a plain step list is a chain; an
	// empty non-nil list means no step.
	After []string
}

func (s Step) String() string {
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

// Matches reports whether e is an entry the step describes.
func (s Step) Matches(e Entry) bool {
	return (s.Msg == "" || e.Msg.Name() == s.Msg) &&
		(s.From == "" || e.From == s.From) &&
		(s.To == "" || e.To == s.To) &&
		(s.Iface == "" || e.Iface == s.Iface)
}

// overlaps reports whether some entry could match both steps.
func (s Step) overlaps(o Step) bool {
	same := func(a, b string) bool { return a == "" || b == "" || a == b }
	return same(s.Msg, o.Msg) && same(string(s.From), string(o.From)) &&
		same(string(s.To), string(o.To)) && same(s.Iface, o.Iface)
}

// Flow is a published message flow: its steps and the happens-before
// edges between them, a partial order. Steps no edge path orders are
// concurrent branches, and a trace may hold them either way round.
type Flow []Step

// Validate reports a flow that cannot be checked exactly: a duplicate or
// unknown step ID, a cycle, or two unordered steps whose patterns could
// match the same entry. The last rule keeps ExpectFlow's greedy matching
// exact: the steps it may match next are pairwise unordered, so at most
// one of them matches any entry.
func (f Flow) Validate() error {
	_, _, err := f.order()
	return err
}

// order returns the index of each step ID and each step's direct
// predecessors as step indexes, or the reason the flow is invalid. A step
// may follow only steps listed before it, so the list is a topological
// order and a cycle cannot be written.
func (f Flow) order() (map[string]int, [][]int, error) {
	ids := make(map[string]int)
	for i, s := range f {
		if _, dup := ids[s.ID]; dup && s.ID != "" {
			return nil, nil, fmt.Errorf("trace: flow: two steps have ID %q", s.ID)
		}
		ids[s.ID] = i
	}
	preds := make([][]int, len(f))
	anc := make([][]bool, len(f)) // anc[i][j]: step j happens before step i
	for i, s := range f {
		if s.After == nil && i > 0 {
			preds[i] = []int{i - 1}
		}
		for _, id := range s.After {
			p, ok := ids[id]
			if !ok || id == "" {
				return nil, nil, fmt.Errorf("trace: flow: %s happens after unknown step %q", s, id)
			}
			if p >= i {
				return nil, nil, fmt.Errorf("trace: flow: %s happens after %q, listed after it (a step follows only earlier steps, so no cycle can form)", s, id)
			}
			preds[i] = append(preds[i], p)
		}
		anc[i] = make([]bool, len(f))
		for _, p := range preds[i] {
			anc[i][p] = true
			for q, a := range anc[p] {
				anc[i][q] = anc[i][q] || a
			}
		}
		for j := range i {
			if !anc[i][j] && f[i].overlaps(f[j]) {
				return nil, nil, fmt.Errorf("trace: flow: unordered steps %s and %s could match the same entry", f[j], s)
			}
		}
	}
	return ids, preds, nil
}

// Match is the entry each step of a flow matched: Entries[i] for Flow[i].
type Match struct {
	Entries []Entry
	ids     map[string]int
}

// Span returns the time from the entry of the step with ID from to the
// entry of the step with ID to. An ID the flow lacks is a programming
// error, and Span panics on it.
func (m Match) Span(from, to string) time.Duration {
	at := func(id string) time.Duration {
		i, ok := m.ids[id]
		if !ok || id == "" {
			panic(fmt.Sprintf("trace: flow has no step %q", id))
		}
		return m.Entries[i].At
	}
	return at(to) - at(from)
}

// flowWindow bounds the trace lines a failed ExpectFlow prints.
const flowWindow = 24

// ExpectFlow checks that the trace holds a linear extension of f: one entry
// per step, each later than its predecessors' entries. Unrelated entries
// may interleave, as the paper's figures elide retransmissions and lower
// layers. It returns the entry each step matched. An invalid flow is an
// error; so is a step no entry matches after its predecessors, and that
// error names the step, where its predecessors matched and a window of the
// trace from there.
func (r *Recorder) ExpectFlow(f Flow) (Match, error) {
	ids, preds, err := f.order()
	if err != nil {
		return Match{}, err
	}
	at := make([]int, len(f)) // the entry index each step matched, or -1
	for i := range at {
		at[i] = -1
	}
	ready := func(i int) bool {
		for _, p := range preds[i] {
			if at[p] < 0 {
				return false
			}
		}
		return at[i] < 0
	}
	for k, e := range r.entries {
		for i, s := range f {
			if ready(i) && s.Matches(e) {
				at[i] = k
				break
			}
		}
	}
	m := Match{Entries: make([]Entry, len(f)), ids: ids}
	for i, k := range at {
		if k >= 0 {
			m.Entries[i] = r.entries[k]
			continue
		}
		// The first unmatched step: its predecessors, listed before it,
		// all matched.
		var b strings.Builder
		fmt.Fprintf(&b, "trace: step not found after its predecessors: %s", f[i])
		from := 0
		for _, p := range preds[i] {
			fmt.Fprintf(&b, "\n  after %s: entry %d at %v", f[p], at[p], r.entries[at[p]].At.Round(time.Microsecond))
			from = max(from, at[p])
		}
		to := min(from+flowWindow, len(r.entries))
		fmt.Fprintf(&b, "\ntrace entries %d-%d of %d:\n", from, to-1, len(r.entries))
		for _, e := range r.entries[from:to] {
			b.WriteString(e.String())
			b.WriteByte('\n')
		}
		return Match{}, errors.New(b.String())
	}
	return m, nil
}

// First returns the first entry the step matches, and whether one exists.
// The step's Note, ID and After play no part.
func (r *Recorder) First(s Step) (Entry, bool) {
	for _, e := range r.entries {
		if s.Matches(e) {
			return e, true
		}
	}
	return Entry{}, false
}
