package netsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vgprs/internal/gprs"
	"vgprs/internal/hlr"
	"vgprs/internal/txn"
	"vgprs/internal/vlr"
	"vgprs/internal/vmsc"
)

// TestEveryTableIsWalked holds every element a builder enrols in the leak
// gate to its TxnStats: the planes it reports must be exactly the transaction
// tables it holds. The tables are found by reflection over the element's
// fields, following pointers only into the components that own tables, so a
// table added to a node or a component without a line in its TxnStats fails
// here — and with it the gate, SignallingRetransmits, SlabImbalance and
// Footprint, which all read the walk.
func TestEveryTableIsWalked(t *testing.T) {
	worlds := []struct {
		name string
		gate *Audited
	}{
		{"vgprs", &BuildVGPRS(VGPRSOptions{Seed: 1, NumMS: 2, NumTerminals: 1}).Audited},
		{"day", &BuildDay(DayOptions{VGPRSOptions: VGPRSOptions{Seed: 1, NumMS: 2}}).Audited},
		{"handoff", &BuildHandoff(VGPRSOptions{Seed: 1}).Audited},
		{"roaming-gsm", &BuildRoamingGSM(1).Audited},
		{"tr23923", &BuildTR23923(TR23923Options{Seed: 1}).Audited},
		{"multi-region", &BuildMultiRegion(MultiRegionOptions{Seed: 1, Regions: 2, MSPerRegion: 1}).Audited},
		{"core", &BuildCore(1, 1, &coreEdge{}).Audited},
	}
	for _, w := range worlds {
		walked := 0
		for _, e := range w.gate.elements {
			planes := 0
			if walker, ok := e.node.(TxnWalker); ok {
				walker.TxnStats(func(string, txn.Stats) { planes++ })
			}
			if held := tablesHeld(e.node); planes != held {
				t.Errorf("%s: %s (%T) holds %d transaction tables, its TxnStats reports %d",
					w.name, e.name, e.node, held, planes)
			}
			walked += planes
		}
		if walked == 0 {
			t.Errorf("%s: no transaction table walked", w.name)
		}
	}
}

// tablesHeld counts the distinct *txn.Table values an element holds: in its
// own fields, and behind pointers to the components that own tables —
// ss7.DialogueManager, h323.Transactions, msc.Registrar, the gprs client
// session (gprs.Client, gprs.Transactions) and the H.323 terminal a TR 23.923
// MS embeds. Other pointers lead to other elements or to plain data and are
// not followed; slices, maps and interfaces are not entered.
func tablesHeld(node any) int {
	tables := map[uintptr]bool{}
	entered := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			el := v.Type().Elem()
			switch {
			case el.PkgPath() == "vgprs/internal/txn" && strings.HasPrefix(el.Name(), "Table["):
				tables[v.Pointer()] = true
			case ownsTables(el) && !entered[v.Pointer()]:
				entered[v.Pointer()] = true
				walk(v.Elem())
			}
		}
	}
	walk(reflect.ValueOf(node).Elem())
	return len(tables)
}

// ownsTables reports whether t is one of the components tablesHeld follows.
func ownsTables(t reflect.Type) bool {
	name := t.Name()
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	switch t.PkgPath() + "." + name {
	case "vgprs/internal/ss7.DialogueManager", "vgprs/internal/h323.Transactions",
		"vgprs/internal/msc.Registrar", "vgprs/internal/gprs.Client",
		"vgprs/internal/gprs.Transactions", "vgprs/internal/h323.Terminal":
		return true
	}
	return false
}

// TestBenchAccessorsReadTheWalk pins the per-node accessors the bench/
// harness sums by hand — PendingTransactions, PendingUpdates, PendingCreates,
// OutstandingDialogues and Retransmits — to the walk the leak gate reads.
// Sampled every 20 ms while two MSs register under 10 % loss, each one
// equals its table's plane in TxnStats, or the walk's total.
func TestBenchAccessorsReadTheWalk(t *testing.T) {
	n, err := chaosNet(3, 2, UniformLossPlan(0.10))
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	type reading struct {
		name      string
		got, want int
	}
	busy := 0
	var retransmits uint64
	for end := n.Env.Now() + chaosWindow; n.Env.Now() < end; {
		n.Env.RunUntil(n.Env.Now() + 20*time.Millisecond)
		for _, e := range n.elements {
			walker, ok := e.node.(TxnWalker)
			if !ok {
				continue
			}
			plane := map[string]int{}
			walker.TxnStats(func(name string, s txn.Stats) { plane[name] = s.InFlight })
			total := txn.Total(walker.TxnStats)
			var readings []reading
			switch node := e.node.(type) {
			case *vmsc.VMSC:
				readings = []reading{{"PendingTransactions", node.PendingTransactions(), total.InFlight}}
			case *vlr.VLR:
				readings = []reading{
					{"PendingUpdates", node.PendingUpdates(), plane["location update"]},
					{"OutstandingDialogues", node.OutstandingDialogues(), plane["MAP"]},
				}
			case *hlr.HLR:
				readings = []reading{{"OutstandingDialogues", node.OutstandingDialogues(), plane["MAP"]}}
			case *gprs.SGSN:
				readings = []reading{
					{"PendingTransactions", node.PendingTransactions(), plane["GTP"]},
					{"OutstandingDialogues", node.OutstandingDialogues(), plane["MAP"]},
				}
			case *gprs.GGSN:
				readings = []reading{
					{"PendingCreates", node.PendingCreates(), plane["PDP create"]},
					{"OutstandingDialogues", node.OutstandingDialogues(), plane["MAP"]},
				}
			}
			if r, ok := e.node.(interface{ Retransmits() uint64 }); ok {
				if got := r.Retransmits(); got != total.Retransmits {
					t.Fatalf("at %v: %s Retransmits = %d, the walk sums %d", n.Env.Now(), e.name, got, total.Retransmits)
				}
				retransmits += total.Retransmits
			}
			for _, r := range readings {
				if r.got != r.want {
					t.Fatalf("at %v: %s %s = %d, the walk reads %d", n.Env.Now(), e.name, r.name, r.got, r.want)
				}
				if r.got != 0 {
					busy++
				}
			}
		}
	}
	if busy == 0 || retransmits == 0 {
		t.Fatalf("nothing to compare: %d non-zero readings, %d retransmits summed", busy, retransmits)
	}
}
