// Package trace observes every message delivery in a simulation. A Recorder
// stores the deliveries. A Flow is one of the paper's message-flow figures
// as a partial order of steps, and Recorder.ExpectFlow checks that a
// recorded trace holds it: the figure tests fail if the live network
// deviates from the published flow, and the experiments read their phase
// boundaries from the entries it matched. A Digest stores nothing: it
// hashes each delivery as it happens, and the determinism checks compare
// its sum with a committed one.
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
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

// MessagesByInterface returns a map from interface name to message count —
// the per-interface signalling-load table used by experiment C5.
func (r *Recorder) MessagesByInterface() map[string]int {
	out := make(map[string]int)
	for _, e := range r.entries {
		out[e.Iface]++
	}
	return out
}

// Digest is a sim.Tracer that hashes each delivery's Dump line into one
// SHA-256 state as it is delivered and counts the lines. It keeps nothing
// else, so a digested run's memory does not grow with its trace.
type Digest struct {
	h     hash.Hash
	lines int
}

var _ sim.Tracer = (*Digest)(nil)

// NewDigest returns a Digest of the empty trace.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Trace implements sim.Tracer.
func (d *Digest) Trace(at time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	fmt.Fprintln(d.h, Entry{At: at, From: from, To: to, Iface: iface, Msg: msg})
	d.lines++
}

// Len returns the number of lines hashed.
func (d *Digest) Len() int { return d.lines }

// Sum returns the hex SHA-256 of the lines so far: that of the same run's
// Recorder.Dump().
func (d *Digest) Sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// Seal appends the engine's delivery count and final clock to the hashed
// trace and returns the Sum. It ends the digest: call it once, after the run.
func (d *Digest) Seal(delivered uint64, now time.Duration) string {
	fmt.Fprintf(d.h, "\ndelivered=%d now=%v\n", delivered, now)
	return d.Sum()
}
