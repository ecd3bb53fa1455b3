package netsim

import (
	"fmt"
	"strings"

	"vgprs/internal/txn"
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

// Auditor is a stateful network element that reports the transient records
// it holds outside its transaction tables, by kind (see the Audit methods of
// vmsc.VMSC, vlr.VLR, gprs.GGSN and the rest).
type Auditor interface {
	Audit(report func(kind string, n int))
}

// TxnWalker is a network element that lists each of its transaction tables
// once, by plane (see the TxnStats methods of vmsc.VMSC, msc.MSC,
// h323.Gateway and the rest).
type TxnWalker interface {
	TxnStats(report func(plane string, s txn.Stats))
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
	node any // an Auditor, a TxnWalker or both
}

// audit registers an element that is an Auditor, a TxnWalker or both under
// the name its residual items carry; any other node is ignored.
func (a *Audited) audit(name string, node any) {
	switch node.(type) {
	case Auditor, TxnWalker:
		a.elements = append(a.elements, auditedElement{name, node})
	}
}

// Residual snapshots the transient state of every registered element: each
// transaction table's in-flight count and record imbalance, and the
// element's Audit rows. Durable state (registrations, attached subscribers,
// idle PDP contexts) is deliberately excluded — it is supposed to survive
// between procedures; only in-flight records count, plus the storage
// audits: a non-zero slab imbalance is a storage-layer leak even when all
// procedure-level counters are clean.
func (a *Audited) Residual() Residual {
	var r Residual
	for _, e := range a.elements {
		if a, ok := e.node.(Auditor); ok {
			a.Audit(func(kind string, n int) { r.add(e.name, kind, n) })
		}
		if w, ok := e.node.(TxnWalker); ok {
			w.TxnStats(func(plane string, s txn.Stats) {
				if s.InFlight != 0 {
					r.add(e.name, plane+" in flight", s.InFlight)
				}
				if s.Imbalance != 0 {
					r.add(e.name, plane+" record imbalance", s.Imbalance)
				}
			})
		}
	}
	return r
}

// SignallingRetransmits sums the retransmission counters of every
// registered element's transaction tables.
func (a *Audited) SignallingRetransmits() uint64 {
	var total uint64
	for _, e := range a.elements {
		if w, ok := e.node.(TxnWalker); ok {
			total += txn.Total(w.TxnStats).Retransmits
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
