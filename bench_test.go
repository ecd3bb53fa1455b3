// Package vgprs_test holds the benchmark harness: one testing.B benchmark
// per paper artifact (Figures 1-9 and the §6 comparisons C1-C5), each
// running the corresponding experiment from internal/experiments. Reported
// custom metrics are virtual-time latencies (ns suffix means simulated
// nanoseconds); the standard ns/op column additionally measures the real
// CPU cost of executing the protocol code paths.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package vgprs_test

import (
	"testing"
	"time"

	"vgprs/internal/experiments"
	"vgprs/internal/netsim"
	"vgprs/internal/tr23923"
)

// BenchmarkFig1AttachActivate regenerates F1: GPRS attach + PDP activation
// on the reference architecture of paper Fig 1.
func BenchmarkFig1AttachActivate(b *testing.B) {
	var last experiments.F1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunF1Attach(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.AttachAndActivate), "simns/attach")
	b.ReportMetric(float64(last.DataRTT), "simns/rtt")
}

// BenchmarkFig4Registration regenerates F4: the Fig 4 registration
// procedure, phase by phase.
func BenchmarkFig4Registration(b *testing.B) {
	var last experiments.RegistrationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunF4Registration(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Total), "simns/registration")
	b.ReportMetric(float64(last.MessageCount), "msgs/registration")
}

// BenchmarkFig5CallSetup regenerates the Fig 5 mobile-originated setup
// latency (part of comparison C1).
func BenchmarkFig5CallSetup(b *testing.B) {
	benchSetup(b, true)
}

// BenchmarkFig6CallSetup regenerates the Fig 6 mobile-terminated setup
// latency (part of comparison C1).
func BenchmarkFig6CallSetup(b *testing.B) {
	benchSetup(b, false)
}

func benchSetup(b *testing.B, mobileOriginated bool) {
	b.Helper()
	var mean time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunC1SetupComparison(int64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		idx := 1
		if mobileOriginated {
			idx = 0
		}
		mean = r.Series[idx].Mean()
	}
	b.ReportMetric(float64(mean), "simns/setup")
}

// BenchmarkC1SetupVGPRSvsTR regenerates the full C1 table (all seven
// scheme/direction variants).
func BenchmarkC1SetupVGPRSvsTR(b *testing.B) {
	var r experiments.C1Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunC1SetupComparison(int64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range r.Series {
		b.Logf("%s", s.Summary())
	}
}

// BenchmarkC2ContextResidency regenerates the C2 residency/latency
// trade-off sweep.
func BenchmarkC2ContextResidency(b *testing.B) {
	var points []experiments.C2Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunC2ContextResidency(int64(i+1), []int{1, 5, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) > 0 {
		last := points[len(points)-1]
		b.ReportMetric(float64(last.VGPRSIdleCtx), "vgprs-idle-ctx")
		b.ReportMetric(float64(last.VGPRSMOSetup), "simns/vgprs-setup")
		b.ReportMetric(float64(last.TRMOSetup), "simns/tr-setup")
	}
}

// BenchmarkC3VoiceLatency regenerates the C3 voice-quality comparison:
// vGPRS CS air leg vs TR 23.923 PS air leg under contention.
func BenchmarkC3VoiceLatency(b *testing.B) {
	var points []experiments.C3Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunC3VoiceQuality(int64(i+1), 5*time.Second,
			[]time.Duration{0, 30 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 3 {
		b.ReportMetric(float64(points[0].Jitter), "simns/vgprs-jitter")
		b.ReportMetric(float64(points[2].Jitter), "simns/tr-jitter")
		b.ReportMetric(float64(points[0].MeanDelay), "simns/vgprs-delay")
		b.ReportMetric(float64(points[2].MeanDelay), "simns/tr-delay")
	}
}

// BenchmarkC5SignallingLoad regenerates the per-interface signalling counts.
func BenchmarkC5SignallingLoad(b *testing.B) {
	var results []experiments.C5Result
	var err error
	for i := 0; i < b.N; i++ {
		results, err = experiments.RunC5SignallingLoad(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.Logf("%s %s: %d control-plane messages", r.Scheme, r.Procedure, r.Total)
	}
}

// BenchmarkFig7GSMRoamerCall regenerates the Fig 7 tromboned call.
func BenchmarkFig7GSMRoamerCall(b *testing.B) {
	var entries []experiments.TromboneEntry
	var err error
	for i := 0; i < b.N; i++ {
		entries, err = experiments.RunF7F8Tromboning(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(entries) == 3 {
		b.ReportMetric(float64(entries[0].IntlSeizures), "intl-trunks")
		b.ReportMetric(float64(entries[0].CostUnits), "cost-units")
		b.ReportMetric(float64(entries[0].Setup), "simns/setup")
	}
}

// BenchmarkFig8VGPRSRoamerCall regenerates the Fig 8 trombone-eliminated
// call and its fallback arm.
func BenchmarkFig8VGPRSRoamerCall(b *testing.B) {
	var entries []experiments.TromboneEntry
	var err error
	for i := 0; i < b.N; i++ {
		entries, err = experiments.RunF7F8Tromboning(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(entries) == 3 {
		b.ReportMetric(float64(entries[1].IntlSeizures), "intl-trunks")
		b.ReportMetric(float64(entries[1].CostUnits), "cost-units")
		b.ReportMetric(float64(entries[1].Setup), "simns/setup")
		b.ReportMetric(float64(entries[2].CostUnits), "fallback-cost-units")
	}
}

// BenchmarkFig9Handoff regenerates the Fig 9 inter-system handoff.
func BenchmarkFig9Handoff(b *testing.B) {
	var r experiments.F9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunF9Handoff(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ExecutionTime), "simns/handover")
	b.ReportMetric(float64(r.HandbackExecution), "simns/handback")
	b.ReportMetric(float64(r.VoiceGap), "simns/voice-gap")
}

// BenchmarkA1RegistrationAblation regenerates the DESIGN.md §5 registration
// ablation (auth/cipher contribution, idle-PDP mode).
func BenchmarkA1RegistrationAblation(b *testing.B) {
	var results []experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		results, err = experiments.RunA1RegistrationAblation(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(results) == 3 {
		b.ReportMetric(float64(results[0].Total), "simns/full")
		b.ReportMetric(float64(results[1].Total), "simns/no-auth")
		b.ReportMetric(float64(results[2].Total), "simns/idle-pdp")
	}
}

// BenchmarkA2VocoderCost regenerates the DESIGN.md §5 vocoder-placement
// ablation: per-frame transcode cost vs mouth-to-ear delay.
func BenchmarkA2VocoderCost(b *testing.B) {
	costs := []time.Duration{500 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond}
	var points []experiments.VocoderPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunA2VocoderCost(int64(i+1), 3*time.Second, costs)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 3 {
		b.ReportMetric(float64(points[0].MeanDelay), "simns/delay-500us")
		b.ReportMetric(float64(points[2].MeanDelay), "simns/delay-5ms")
	}
}

// BenchmarkA3RadioLatencySweep regenerates the radio-latency sensitivity
// sweep behind EXPERIMENTS.md's profile-independence claim.
func BenchmarkA3RadioLatencySweep(b *testing.B) {
	ums := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	var points []experiments.RadioSweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunA3RadioLatencySweep(int64(i+1), ums)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 3 {
		b.ReportMetric(float64(points[0].TRSetup-points[0].VGPRSSetup), "simns/handicap-5ms")
		b.ReportMetric(float64(points[2].TRSetup-points[2].VGPRSSetup), "simns/handicap-40ms")
	}
}

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
		n := tr23923.BuildNet(tr23923.Options{
			Seed: int64(i + 1), NumMS: 20, NoTrace: true,
		})
		if err := n.RegisterAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20, "registrations/op")
}

// BenchmarkR1RegistrationStorm regenerates the mass power-on sweep.
func BenchmarkR1RegistrationStorm(b *testing.B) {
	var points []experiments.R1Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunR1RegistrationStorm(int64(i+1),
			[]struct{ MS, TCH int }{{25, 4}})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(points) == 1 {
		b.ReportMetric(float64(points[0].Duration), "simns/storm")
		b.ReportMetric(float64(points[0].Blocked), "blocked")
	}
}

// TestRegistrationAllocBudget is the allocation budget for the full
// registration stack on the pooled codec path: building the standard 50-MS
// topology and registering every MS must stay under 5,200 heap allocations
// (down from 10,308 before the codecs reused buffers). The measured cost is
// 4,980 — 4,861 on the pooled path plus ~2 allocations per node for the
// lazily-created per-node RNG streams the engine's determinism contract
// requires — and the ~4% headroom absorbs Go-version drift in map
// growth.
func TestRegistrationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs steady-state measurement")
	}
	const budget = 5200
	allocs := testing.AllocsPerRun(5, func() {
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{
			Seed: 1, NumMS: 50, NoTrace: true,
		})
		if err := n.RegisterAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("50-MS registration allocated %.0f objects/op, budget %d", allocs, budget)
	}
}
