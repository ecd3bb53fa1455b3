package netsim

import (
	"errors"
	"testing"
	"time"
)

// chaosSeeds is the deterministic seed sweep the eventual-success
// scenarios run over. Twenty seeds at 10% uniform loss is the acceptance
// bar: every run must succeed within the per-transaction retry budget.
var chaosSeeds = func() []int64 {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(1000 + 37*i)
	}
	return seeds
}()

// TestChaosRegistrationUnderUniformLoss runs the registration scenario at
// 10% independent loss on every core signalling link across the seed
// sweep. Every seed must register within the 30 s RegisterAll window —
// eventual success with bounded retries — and the sweep as a whole must
// actually have exercised the retransmission paths.
func TestChaosRegistrationUnderUniformLoss(t *testing.T) {
	var totalRetransmits uint64
	for _, seed := range chaosSeeds {
		res, err := RunChaosRegistration(seed, UniformLossPlan(0.10))
		if err != nil {
			t.Fatalf("seed %d: %v (retransmits %d)", seed, err, res.Retransmits)
		}
		totalRetransmits += res.Retransmits
	}
	if totalRetransmits == 0 {
		t.Fatal("20 seeds of 10% loss never retransmitted: faults not exercised")
	}
	t.Logf("registration: %d seeds, %d total retransmits", len(chaosSeeds), totalRetransmits)
}

// TestChaosCallUnderUniformLoss is the MS-to-MS analogue: registration
// plus call setup must both complete under 10% uniform loss, every seed.
func TestChaosCallUnderUniformLoss(t *testing.T) {
	var totalRetransmits uint64
	for _, seed := range chaosSeeds {
		res, err := RunChaosCall(seed, UniformLossPlan(0.10))
		if err != nil {
			t.Fatalf("seed %d: %v (retransmits %d)", seed, err, res.Retransmits)
		}
		totalRetransmits += res.Retransmits
	}
	if totalRetransmits == 0 {
		t.Fatal("20 seeds of 10% loss never retransmitted: faults not exercised")
	}
	t.Logf("call setup: %d seeds, %d total retransmits", len(chaosSeeds), totalRetransmits)
}

// TestChaosCallWithDuplication turns on duplication alongside loss: every
// responder must treat retransmitted and duplicated signalling
// idempotently or calls double-connect / double-count.
func TestChaosCallWithDuplication(t *testing.T) {
	plan := UniformLossPlan(0.05)
	for i := range plan {
		plan[i].Dup = 0.10
	}
	for _, seed := range chaosSeeds[:10] {
		if res, err := RunChaosCall(seed, plan); err != nil {
			t.Fatalf("seed %d: %v (retransmits %d)", seed, err, res.Retransmits)
		}
	}
}

// TestChaosDownLinkFailsCleanly takes the VMSC<->VLR MAP link down for
// good. Registration must fail with a typed ProcedureError before the
// deadline — a clean refusal, not a hang — and the MS must land back in
// the detached state with no calls or registrations half-open.
func TestChaosDownLinkFailsCleanly(t *testing.T) {
	plan := FaultPlan{{A: "VMSC-1", B: "VLR-1", Down: true}}
	res, err := RunChaosRegistration(7, plan)
	if err == nil {
		t.Fatal("registration succeeded over a down MAP link")
	}
	var perr *ProcedureError
	if !errors.As(err, &perr) {
		t.Fatalf("error is %T, want *ProcedureError: %v", err, err)
	}
	if perr.Procedure != "registration" || perr.Seed != 7 {
		t.Fatalf("wrong attribution: %+v", perr)
	}
	if res.Registered {
		t.Fatal("result claims registered despite error")
	}
	// The failure must come from the bounded retry budget, not the
	// scenario deadline racing an unbounded retry loop.
	if res.Elapsed > 31*time.Second {
		t.Fatalf("failure took %v, not bounded by the retry budget", res.Elapsed)
	}
}

// TestChaosDownLinkHealsAndRecovers fails the Gb link for a 5 s window at
// the start of registration. The GMM attach and GTP transactions launched
// into the outage must recover by retransmission once the window closes,
// within the same RegisterAll deadline.
func TestChaosDownLinkHealsAndRecovers(t *testing.T) {
	plan := FaultPlan{{A: "VMSC-1", B: "SGSN-1", Down: true, Until: 5 * time.Second}}
	res, err := RunChaosRegistration(11, plan)
	if err != nil {
		t.Fatalf("registration did not recover from a healed outage: %v", err)
	}
	if res.Retransmits == 0 {
		t.Fatal("outage recovery without a single retransmission is impossible")
	}
	t.Logf("healed after outage: %d retransmits, elapsed %v", res.Retransmits, res.Elapsed)
}

// TestChaosDeterminism replays one lossy seed twice and requires
// identical retransmission counts and virtual-time outcomes: the fault
// draws come from the Env's seeded RNG and nothing else.
func TestChaosDeterminism(t *testing.T) {
	run := func() ChaosResult {
		res, err := RunChaosCall(42, UniformLossPlan(0.10))
		if err != nil {
			t.Fatalf("seed 42: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different outcomes:\n a: %+v\n b: %+v", a, b)
	}
}

// TestChaosFaultPlanRejectsUnknownLink guards the scripting surface: a
// typo'd node name must surface as an error, not as a silently fault-free
// run.
func TestChaosFaultPlanRejectsUnknownLink(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 1})
	plan := FaultPlan{{A: "VMSC-1", B: "NOPE", Loss: 0.5}}
	if err := plan.Apply(n.Env); err == nil {
		t.Fatal("fault plan against a missing link applied cleanly")
	}
}

// TestChaosLosslessBaselineHasNoRetransmits pins the control arm: with no
// faults scripted, the retry layer must stay completely quiet, so the
// PR 1/2 latency and allocation baselines are untouched.
func TestChaosLosslessBaselineHasNoRetransmits(t *testing.T) {
	res, err := RunChaosCall(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmits != 0 {
		t.Fatalf("lossless run retransmitted %d times", res.Retransmits)
	}
	if !res.CallConnected {
		t.Fatal("lossless call did not connect")
	}
}
