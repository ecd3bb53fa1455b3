package scenario

import (
	"testing"
	"time"
)

// TestMobilitySlabResidency runs the mobility churn — location-update and
// handoff storms over a slab-resident population — and confirms the
// storage layer drains clean: RunMobility's residual snapshot
// now folds in the SlabImbalance() audits of both VMSCs, the gatekeeper,
// and the core databases, so a zero Residual here means every slab slot is
// back on a free-list and every index entry resolves (no leaked rows, no
// stale handles) after the storms subside.
func TestMobilitySlabResidency(t *testing.T) {
	res, err := RunMobility(MobilityConfig{
		Seed: 5, NumMS: 8,
		Duration: 4 * time.Minute, StormEvery: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyUpdates == 0 || res.Handovers == 0 {
		t.Fatalf("inert run, no LU/handoff pressure: %+v", res)
	}
	if res.Residual != 0 {
		t.Errorf("%d residual records (slab audit included) after drain", res.Residual)
	}
}
