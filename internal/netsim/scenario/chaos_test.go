package scenario

import (
	"errors"
	"testing"
	"time"

	"vgprs/internal/netsim"
)

// TestFlashCrowdOutageRecovery runs the flash crowd under a transient core
// outage — the VLR<->HLR link is down for the storm's first five seconds.
// The chaos retry budgets must ride out the outage: everyone recovers, and
// only after the heal.
func TestFlashCrowdOutageRecovery(t *testing.T) {
	res, err := RunFlashCrowd(FlashCrowdConfig{
		Seed: 21, NumMS: 8, Plan: TransientCoreOutage(5 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovered != 8 || res.Exhausted != 0 {
		t.Fatalf("population did not ride out the outage: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatal("outage produced no retransmits — fault plan inert")
	}
	if res.RecoveryTime < 5*time.Second {
		t.Fatalf("recovery time %v predates the heal", res.RecoveryTime)
	}
}

// TestFlashCrowdExhaustionIsCleanAndTyped leaves the VMSC<->VLR link down
// for good: every re-registration must exhaust its retry budget, fail as a
// typed *netsim.ProcedureError, and leave zero residual transaction state.
func TestFlashCrowdExhaustionIsCleanAndTyped(t *testing.T) {
	plan := netsim.FaultPlan{
		{A: "VMSC-1", B: "VLR-1", Down: true},
	}
	res, err := RunFlashCrowd(FlashCrowdConfig{Seed: 22, NumMS: 6, Plan: plan})
	if err == nil {
		t.Fatalf("expected budget exhaustion, got %+v", res)
	}
	var perr *netsim.ProcedureError
	if !errors.As(err, &perr) {
		t.Fatalf("error is %T (%v), want *netsim.ProcedureError", err, err)
	}
	if perr.Procedure != "flash-crowd" || perr.Seed != 22 {
		t.Fatalf("wrong error identity: %+v", perr)
	}
	if res.Exhausted != 6 || res.Recovered != 0 {
		t.Fatalf("partition wrong under total outage: %+v", res)
	}
	// The leak gate still applies to failures: exhausted procedures
	// must tear down their transactions, not abandon them.
	if res.Residual != 0 {
		t.Fatalf("exhausted registrations leaked %d records", res.Residual)
	}
}
