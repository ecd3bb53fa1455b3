package netsim

import (
	"fmt"
	"strings"
)

// Residual is a snapshot of every transient signalling record a network
// still holds: pending transactions, open MAP dialogues, RAS exchanges in
// flight. A drained network — every call hung up, every procedure answered
// — must report an empty Residual; the scenario soaks assert exactly that,
// so any state a procedure forgets to release shows up by name instead of
// as a slow memory climb.
type Residual struct {
	Items []ResidualItem
}

// ResidualItem names one non-zero transient-state counter.
type ResidualItem struct {
	Node  string
	Kind  string
	Count int
}

// add records a counter only when it is non-zero, keeping Items a pure
// violation list.
func (r *Residual) add(node, kind string, count int) {
	if count != 0 {
		r.Items = append(r.Items, ResidualItem{Node: node, Kind: kind, Count: count})
	}
}

// Total sums every leaked record.
func (r *Residual) Total() int {
	total := 0
	for _, it := range r.Items {
		total += it.Count
	}
	return total
}

// String renders the violation list, one counter per line.
func (r *Residual) String() string {
	if len(r.Items) == 0 {
		return "no residual state"
	}
	var b strings.Builder
	for i, it := range r.Items {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: %d %s", it.Node, it.Count, it.Kind)
	}
	return b.String()
}

// Auditor is a stateful network element that can report the transient
// records it holds, by kind (see the Audit methods of vmsc.VMSC, vlr.VLR,
// gprs.SGSN and the rest).
type Auditor interface {
	Audit(report func(kind string, n int))
}

// Audited is the registry behind a network's leak gate. Every builder
// registers each stateful element as it creates it, so Residual and
// SignallingRetransmits cover exactly what was built: an element added to a
// topology cannot be forgotten by the gate, and an extended topology
// (TwoVMSCNet, DayNet) needs no Residual of its own.
type Audited struct {
	elements []auditedElement
}

type auditedElement struct {
	name string
	node Auditor
}

// audit registers an element under the name its residual items carry.
func (a *Audited) audit(name string, node Auditor) {
	a.elements = append(a.elements, auditedElement{name, node})
}

// Residual snapshots the transient state of every registered element.
// Durable state (registrations, attached subscribers, idle PDP contexts) is
// deliberately excluded — it is supposed to survive between procedures;
// only in-flight records count, plus each element's storage audit: a
// non-zero slab imbalance is a storage-layer leak even when all
// procedure-level counters are clean.
func (a *Audited) Residual() Residual {
	var r Residual
	for _, e := range a.elements {
		e.node.Audit(func(kind string, n int) { r.add(e.name, kind, n) })
	}
	return r
}

// SignallingRetransmits sums the retransmission counters of every
// registered element that retransmits: MAP dialogues at the VMSCs, VLRs,
// HLR, SGSNs and GGSN, GTP transactions at the SGSNs, the VMSCs' GMM/SM,
// RAS and Q.931 tables, and the H.323 terminals.
func (a *Audited) SignallingRetransmits() uint64 {
	var total uint64
	for _, e := range a.elements {
		if r, ok := e.node.(interface{ Retransmits() uint64 }); ok {
			total += r.Retransmits()
		}
	}
	return total
}

// Footprints reports the Footprint, in bytes, of every registered element
// that has one.
func (a *Audited) Footprints(report func(node string, bytes int)) {
	for _, e := range a.elements {
		if f, ok := e.node.(interface{ Footprint() int }); ok {
			report(e.name, f.Footprint())
		}
	}
}
