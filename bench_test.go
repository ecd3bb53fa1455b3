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
