package scenario

import (
	"testing"
	"time"
)

// soakDuration picks the simulated length: the full default for regular
// runs, a reduced (but still multi-window) slice under -short so the CI
// soak-short job exercises the same invariants quickly.
func soakDuration(t *testing.T) (time.Duration, time.Duration) {
	if testing.Short() {
		return time.Hour, 15 * time.Minute
	}
	return 4 * time.Hour, 30 * time.Minute
}

// TestDaySoakLeakProof is the soak gate: a day-in-the-life run long enough
// to shake out state leaks must end with zero residual transient state and
// a flat post-GC heap across the final two sampling windows.
func TestDaySoakLeakProof(t *testing.T) {
	dur, window := soakDuration(t)
	res, err := RunDay(DayConfig{
		Seed: 42, NumMS: 6, DataMS: 2,
		Duration: dur, HeapWindow: window,
	})
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if res.Residual != 0 {
		t.Fatalf("residual transient state after drain:\n%s", res.ResidualDetail)
	}
	if res.Calls == 0 || res.DataEchoes == 0 || res.PowerCycles == 0 {
		t.Fatalf("soak was inert: %+v", res)
	}
	if len(res.HeapWindows) < 3 {
		t.Fatalf("want >= 3 heap windows, got %d (%v)", len(res.HeapWindows), res.HeapWindows)
	}

	// Steady state: the last window must not have grown materially over
	// the one before it. Post-GC HeapAlloc jitters with goroutine stacks
	// and allocator slack, so allow the larger of 5% or 512 KiB.
	prev := res.HeapWindows[len(res.HeapWindows)-2]
	last := res.HeapWindows[len(res.HeapWindows)-1]
	if last > prev {
		growth := last - prev
		slack := prev / 20
		if slack < 512*1024 {
			slack = 512 * 1024
		}
		if growth > slack {
			t.Fatalf("heap grew %d bytes between final windows (%d -> %d); full series: %v",
				growth, prev, last, res.HeapWindows)
		}
	}
	t.Logf("soak: %v simulated, %d calls (%d failures), %d data echoes, %d relocations, %d power cycles, heap windows %v",
		dur, res.Calls, res.CallFailures, res.DataEchoes, res.Relocations, res.PowerCycles, res.HeapWindows)
}
