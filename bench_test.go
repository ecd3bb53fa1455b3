// Package vgprs_test holds the simulator's own cost benchmarks: host CPU
// time and allocations of the full registration machinery, for vGPRS and
// for the TR 23.923 baseline, plus the allocation budget that gates the
// first. The paper's numbers are virtual time and live in the committed
// BENCH_<id>.json files that cmd/vgprs-bench writes and checks.
//
// Run with:
//
//	go test -run '^$' -bench RegistrationThroughput -benchmem .
package vgprs_test

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/netsim"
)

// BenchmarkRegistrationThroughput measures the real CPU cost of the full
// registration machinery at population scale — an engineering (not paper)
// number that sizes the simulator itself.
func BenchmarkRegistrationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{
			Seed: int64(i + 1), NumMS: 50, NoTrace: true,
		})
		if err := n.RegisterAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(50, "registrations/op")
}

// BenchmarkTRRegistrationThroughput is the TR-side equivalent.
func BenchmarkTRRegistrationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.BuildTR23923(netsim.TR23923Options{
			Seed: int64(i + 1), NumMS: 20, NoTrace: true,
		})
		if err := n.RegisterAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20, "registrations/op")
}

// TestRegistrationAllocBudget is the allocation budget for the full
// registration stack on the pooled codec path: building the standard 50-MS
// topology and registering every MS must stay under 4,900 heap allocations
// (down from 10,308 before the codecs reused buffers). The measured cost is
// 4,686 (go1.24, BenchmarkRegistrationThroughput), including ~2 allocations
// per node for the lazily-created per-node RNG streams the engine's
// determinism contract requires; the ~4% headroom absorbs Go-version drift
// in map growth. The race detector's instrumentation allocates more (~5,070),
// so race builds keep the earlier 5,200 budget.
func TestRegistrationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs steady-state measurement")
	}
	budget := 4900.0
	if raceEnabled {
		budget = 5200
	}
	allocs := testing.AllocsPerRun(5, func() {
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{
			Seed: 1, NumMS: 50, NoTrace: true,
		})
		if err := n.RegisterAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("50-MS registration allocated %.0f objects/op, budget %.0f", allocs, budget)
	}
}

// TestCallSetupAllocBudget is the allocation budget for the signalling
// plane of a call: on the standard vGPRS topology, ten MS-to-MS calls are
// set up (Fig 5/6: radio, MAP, RAS admission, Q.931 through the GGSN
// hairpin) and cleared, and the allocations are counted per call. The
// measured cost is 198.6 (go1.24; 204.7 while the GGSN re-encoded every
// hairpinned Q.931 message) and the budget adds 3 % headroom for Go-version
// drift in map growth. The race detector's instrumentation allocates more
// (about 220), so race builds get the same headroom over that.
func TestCallSetupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs steady-state measurement")
	}
	const pairs = 10
	budget := 204.0
	if raceEnabled {
		budget = 227
	}
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1, NumMS: 2 * pairs, NoTrace: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 2*pairs; i += 2 {
			if err := n.MSs[i].Dial(n.Env, n.Subscribers[i+1].MSISDN); err != nil {
				t.Fatal(err)
			}
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		for i := 0; i < 2*pairs; i += 2 {
			if st := n.MSs[i].State(); st != gsm.MSInCall {
				t.Fatalf("%s: %v, want in call", n.MSs[i].ID(), st)
			}
			if err := n.MSs[i].Hangup(n.Env); err != nil {
				t.Fatal(err)
			}
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if active := n.VMSC.ActiveCalls(); active != 0 {
			t.Fatalf("%d calls still up after clearing", active)
		}
	}) / pairs
	t.Logf("%.1f allocations per call, budget %.0f", allocs, budget)
	if allocs > budget {
		t.Fatalf("call set-up and clearing allocated %.1f objects/call, budget %.0f", allocs, budget)
	}
}
