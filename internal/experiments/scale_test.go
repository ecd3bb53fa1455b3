package experiments

import "testing"

// TestBytesPerSubscriberBudget is the memory-residency gate for the slab-
// backed core: attach a large population end to end (VLR registration, HLR
// record, GPRS attach, PDP context) and hold the measured heap cost per
// subscriber under a committed budget. The budgets carry roughly 2x
// headroom over measured values (844 B/sub at 100k, ~1,300 B/sub at 10k —
// smaller populations amortise the index tables and symbol interners over
// fewer subscribers), so regressions that matter — a new per-subscriber
// heap object, an index that stops recycling — trip the gate while noise
// does not.
//
// The same run asserts the storage fully recycles: after detach-all plus
// cancel-all, every slab slot must be back on a free-list (zero live
// records) and every index entry gone (zero imbalance).
func TestBytesPerSubscriberBudget(t *testing.T) {
	subs, budget := 100_000, 1_600.0
	if testing.Short() || raceEnabled {
		// Race instrumentation roughly triples per-object cost (measured
		// ~2,450 B/sub vs ~1,300 plain at 10k).
		subs, budget = 10_000, 3_200.0
	}
	p, err := RunScale(7, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("subs=%d bytes/sub=%.0f attach/s=%.0f call-setup/s=%.0f churn/s=%.0f",
		p.Subs, p.BytesPerSub, p.AttachPerSec, p.CallSetupPerSec, p.ChurnPerSec)
	if p.Rejects != 0 {
		t.Errorf("rejects = %d, want 0", p.Rejects)
	}
	if p.BytesPerSub > budget {
		t.Errorf("bytes/subscriber = %.0f, budget %.0f", p.BytesPerSub, budget)
	}
	if p.DetachLeftover != 0 {
		t.Errorf("records still live after detach-all: %d", p.DetachLeftover)
	}
	if p.SlabImbalance != 0 {
		t.Errorf("slab imbalance after detach-all: %d", p.SlabImbalance)
	}
}

// TestFullStackBytesPerSubscriberBudget is the memory gate for the full
// Fig 2(b) stack: the same population attached through a real VMSC (MS
// table, hosted GPRS clients, H.323 endpoints), VLR, HLR, SGSN, GGSN,
// gatekeeper, and directory at once. The budget carries ~1.2x headroom over
// the measured 1,805 B/sub at 100k; the run itself asserts completeness
// (every subscriber registered at the VMSC and the gatekeeper), end-to-end
// call setup at full residency, and full recycling after cancel-all.
func TestFullStackBytesPerSubscriberBudget(t *testing.T) {
	subs, budget := 100_000, 2_200.0
	if testing.Short() || raceEnabled {
		// Slab chunks dominate the full-stack cost, so race instrumentation
		// does not move it (measured 4,020 B/sub plain and race at 10k).
		subs, budget = 10_000, 4_800.0
	}
	p, err := RunScaleFull(7, subs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("subs=%d bytes/sub=%.0f attach/s=%.0f call-setup/s=%.0f",
		p.Subs, p.BytesPerSub, p.AttachPerSec, p.CallSetupPerSec)
	if p.Rejects != 0 {
		t.Errorf("rejects = %d, want 0", p.Rejects)
	}
	if p.BytesPerSub > budget {
		t.Errorf("bytes/subscriber = %.0f, budget %.0f", p.BytesPerSub, budget)
	}
	if p.DetachLeftover != 0 {
		t.Errorf("records still live after cancel-all: %d", p.DetachLeftover)
	}
	if p.SlabImbalance != 0 {
		t.Errorf("slab imbalance after cancel-all: %d", p.SlabImbalance)
	}
}

// TestScaleFullSmall is the fast canary for the full-stack harness: a
// population small enough for every test run, with RunScaleFull's own
// completeness checks (registration, call setup, recycling) doing the
// asserting.
func TestScaleFullSmall(t *testing.T) {
	p, err := RunScaleFull(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p.RegisteredVMSC != 500 || p.GKRegistered != 500 || p.ActivePDP != 500 {
		t.Fatalf("population incomplete: %+v", p)
	}
	if p.DetachLeftover != 0 || p.SlabImbalance != 0 {
		t.Fatalf("leak after cancel-all: leftover=%d imbalance=%d", p.DetachLeftover, p.SlabImbalance)
	}
}

// TestScaleSmall exercises the whole scale harness at a size cheap enough
// for every test run, including the error paths RunScale itself checks
// (population completeness) — a fast canary in front of the big gate.
func TestScaleSmall(t *testing.T) {
	p, err := RunScale(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p.Registered != 500 || p.Attached != 500 || p.ActivePDP != 500 {
		t.Fatalf("population incomplete: %+v", p)
	}
	if p.DetachLeftover != 0 || p.SlabImbalance != 0 {
		t.Fatalf("leak after detach: leftover=%d imbalance=%d", p.DetachLeftover, p.SlabImbalance)
	}
}
