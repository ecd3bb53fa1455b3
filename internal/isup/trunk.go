package isup

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoCircuit is returned when a trunk group has no idle circuit.
var ErrNoCircuit = errors.New("isup: no idle circuit in trunk group")

// TrunkGroup manages the circuits between two exchanges. Seize/Release are
// safe for concurrent use; the simulation itself is single-threaded but
// examples print trunk occupancy from outside the event loop.
type TrunkGroup struct {
	// Name identifies the group, e.g. "GMSC-UK<->GMSC-HK".
	Name string
	// Class is the tariff class counted by the tromboning experiment.
	Class TrunkClass

	mu     sync.Mutex
	busy   map[CIC]bool
	size   int
	seized int // cumulative seizures, for cost accounting
}

// NewTrunkGroup returns a trunk group with circuits numbered 1..size.
func NewTrunkGroup(name string, class TrunkClass, size int) *TrunkGroup {
	if size <= 0 {
		panic(fmt.Sprintf("isup: trunk group %q size %d", name, size))
	}
	return &TrunkGroup{Name: name, Class: class, busy: make(map[CIC]bool), size: size}
}

// Seize allocates an idle circuit, returning its CIC.
func (t *TrunkGroup) Seize() (CIC, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i <= t.size; i++ {
		cic := CIC(i)
		if !t.busy[cic] {
			t.busy[cic] = true
			t.seized++
			return cic, nil
		}
	}
	return 0, fmt.Errorf("%w: %s (%d circuits)", ErrNoCircuit, t.Name, t.size)
}

// Release returns a circuit to idle. Releasing an idle circuit is a no-op:
// REL/RLC glare is legal in ISUP.
func (t *TrunkGroup) Release(cic CIC) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.busy, cic)
}

// InUse returns the number of seized circuits.
func (t *TrunkGroup) InUse() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.busy)
}

// Audit reports the group's transient state for netsim's leak gate.
func (t *TrunkGroup) Audit(report func(kind string, n int)) {
	report("trunks in use", t.InUse())
}

// Size returns the number of circuits in the group.
func (t *TrunkGroup) Size() int { return t.size }

// TotalSeizures returns the cumulative number of successful seizures — each
// one is a trunk leg the tromboning experiment charges at Class.CostUnits().
func (t *TrunkGroup) TotalSeizures() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seized
}
