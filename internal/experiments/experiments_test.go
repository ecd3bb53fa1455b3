package experiments

import (
	"strings"
	"testing"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/trace"
)

// TestF1Attach also holds DataRTT to the VMSC's own RRQ -> RCF exchange
// through the tunnel, not the terminal's LAN registration that precedes it.
func TestF1Attach(t *testing.T) {
	r, err := RunF1Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttachAndActivate <= 0 || r.DataRTT <= 0 {
		t.Fatalf("result = %+v", r)
	}
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 1})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	rrq, ok1 := n.Rec.First(trace.Step{Msg: "RAS RRQ", From: "VMSC-1"})
	rcf, ok2 := n.Rec.First(trace.Step{Msg: "RAS RCF", To: "VMSC-1"})
	if !ok1 || !ok2 || r.DataRTT != rcf.At-rrq.At {
		t.Fatalf("DataRTT = %v, want the VMSC's RRQ -> RCF span %v", r.DataRTT, rcf.At-rrq.At)
	}
	if !strings.Contains(F1Table(r).String(), "GPRS attach") {
		t.Fatal("table missing rows")
	}
}

func TestF4Registration(t *testing.T) {
	r, err := RunF4Registration(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total <= 0 || r.GSMPhase <= 0 || r.GPRSPhase <= 0 || r.H323Phase <= 0 {
		t.Fatalf("phases = %+v", r)
	}
	// The phases must (approximately) compose the total: the accept goes
	// out right after the RCF, so GSM+GPRS+H323 is within one hop of it.
	sum := r.GSMPhase + r.GPRSPhase + r.H323Phase
	if sum > r.Total {
		t.Fatalf("phase sum %v exceeds total %v", sum, r.Total)
	}
	if r.Total-sum > 100*time.Millisecond {
		t.Fatalf("unaccounted registration time: total %v, phases %v", r.Total, sum)
	}
	t.Logf("\n%s", F4Table(r))
}

func TestC1SetupComparisonShape(t *testing.T) {
	r, err := RunC1SetupComparison(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, s := range r.Series {
		byName[s.Name] = s.Mean()
	}
	vgprsMO := byName["vGPRS MO"]
	vgprsMT := byName["vGPRS MT"]
	trMO := byName["TR 23.923 MO"]
	trMT := byName["TR 23.923 MT"]
	ablMO := byName["vGPRS (idle-PDP-deactivation ablation) MO"]
	if vgprsMO == 0 || trMO == 0 || vgprsMT == 0 || trMT == 0 {
		t.Fatalf("missing series: %+v", byName)
	}
	// The §6 claims, as measured shape:
	// 1. TR MT setup pays network-initiated activation and is the worst.
	if trMT <= trMO {
		t.Errorf("TR MT (%v) should exceed TR MO (%v): network-initiated activation", trMT, trMO)
	}
	if trMT <= vgprsMT {
		t.Errorf("TR MT (%v) should exceed vGPRS MT (%v)", trMT, vgprsMT)
	}
	// 2. Deactivating idle contexts "significantly increases the call
	// setup time" for vGPRS too.
	if ablMO <= vgprsMO {
		t.Errorf("ablation MO (%v) should exceed vGPRS MO (%v)", ablMO, vgprsMO)
	}
	t.Logf("\n%s", C1Table(r))
}

func TestC2ResidencyShape(t *testing.T) {
	points, err := RunC2ContextResidency(1, []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// vGPRS holds one signalling context per MS while idle; TR none.
		if p.VGPRSIdleCtx != p.NumMS {
			t.Errorf("N=%d: vGPRS idle contexts = %d", p.NumMS, p.VGPRSIdleCtx)
		}
		if p.TRIdleCtx != 0 {
			t.Errorf("N=%d: TR idle contexts = %d", p.NumMS, p.TRIdleCtx)
		}
		// ...and in exchange sets calls up faster.
		if p.VGPRSMOSetup >= p.TRMOSetup {
			t.Errorf("N=%d: vGPRS setup %v >= TR setup %v", p.NumMS, p.VGPRSMOSetup, p.TRMOSetup)
		}
	}
	t.Logf("\n%s", C2Table(points))
}

func TestC3VoiceQualityShape(t *testing.T) {
	points, err := RunC3VoiceQuality(1, 5*time.Second,
		[]time.Duration{0, 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	vgprs := points[0]
	vgprsDTX := points[1]
	trSmooth := points[2]
	trRough := points[3]
	// Contention degrades the TR jitter well past vGPRS's.
	if trRough.Jitter <= vgprs.Jitter {
		t.Errorf("TR jitter under contention (%v) should exceed vGPRS (%v)",
			trRough.Jitter, vgprs.Jitter)
	}
	if trRough.Jitter <= trSmooth.Jitter {
		t.Errorf("contention did not increase TR jitter (%v vs %v)",
			trRough.Jitter, trSmooth.Jitter)
	}
	// DTX halves the media frames (Brady activity ~0.43) at equal jitter.
	ratio := float64(vgprsDTX.Frames) / float64(vgprs.Frames)
	if ratio < 0.2 || ratio > 0.7 {
		t.Errorf("DTX frame ratio = %.2f", ratio)
	}
	if vgprsDTX.Jitter != vgprs.Jitter {
		t.Errorf("DTX changed jitter: %v vs %v", vgprsDTX.Jitter, vgprs.Jitter)
	}
	t.Logf("\n%s", C3Table(points))
}

func TestC5SignallingLoad(t *testing.T) {
	results, err := RunC5SignallingLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Total == 0 {
			t.Errorf("%s %s: zero messages", r.Scheme, r.Procedure)
		}
	}
	// vGPRS registration includes the GSM radio leg; TR's does not.
	if results[0].ByIface["Um"] == 0 {
		t.Error("vGPRS registration shows no Um signalling")
	}
	t.Logf("\n%s", C5Table(results))
}

func TestTromboningShape(t *testing.T) {
	entries, err := RunF7F8Tromboning(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	gsmCase, vgprsCase, fallback := entries[0], entries[1], entries[2]
	for _, e := range entries {
		if !e.Connected {
			t.Fatalf("%s did not connect", e.Scenario)
		}
	}
	if gsmCase.IntlSeizures != 2 {
		t.Errorf("GSM tromboning international trunks = %d, want 2", gsmCase.IntlSeizures)
	}
	if vgprsCase.IntlSeizures != 0 || vgprsCase.LocalSeizure != 1 {
		t.Errorf("vGPRS case trunks = intl %d local %d", vgprsCase.IntlSeizures, vgprsCase.LocalSeizure)
	}
	if fallback.IntlSeizures != 1 {
		t.Errorf("fallback international trunks = %d, want 1", fallback.IntlSeizures)
	}
	// The cost collapse is the paper's headline: 50 units -> 1.
	if vgprsCase.CostUnits >= gsmCase.CostUnits {
		t.Errorf("vGPRS cost %d >= GSM cost %d", vgprsCase.CostUnits, gsmCase.CostUnits)
	}
	t.Logf("\n%s", TromboneTable(entries))
}

func TestF9Handoff(t *testing.T) {
	r, err := RunF9Handoff(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecutionTime <= 0 {
		t.Errorf("execution time = %v", r.ExecutionTime)
	}
	if !r.MediaContinued {
		t.Error("media did not continue after handoff")
	}
	if r.TrunksHeld != 1 {
		t.Errorf("anchor trunks held = %d, want 1", r.TrunksHeld)
	}
	t.Logf("\n%s", F9Table(r))
}

func TestA1RegistrationAblation(t *testing.T) {
	results, err := RunA1RegistrationAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	full, noAuth, idle := results[0], results[1], results[2]
	// Authentication + ciphering are four radio round trips; removing
	// them must shorten registration materially.
	if noAuth.Total >= full.Total {
		t.Errorf("no-auth registration %v >= full %v", noAuth.Total, full.Total)
	}
	// The idle-PDP mode deactivates AFTER confirming the gatekeeper
	// registration but BEFORE the Um accept goes out in this
	// implementation, so it may add a bounded tail; it must not explode.
	if idle.Total > full.Total+200*time.Millisecond {
		t.Errorf("idle-PDP registration %v much worse than full %v", idle.Total, full.Total)
	}
	t.Logf("\n%s", A1Table(results))
}

func TestR1RegistrationStorm(t *testing.T) {
	points, err := RunR1RegistrationStorm(1, []struct{ MS, TCH int }{
		{10, 4}, {20, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Registered != p.NumMS {
			t.Errorf("N=%d TCH=%d: registered %d", p.NumMS, p.TCHCapacity, p.Registered)
		}
	}
	// Contention grows with population at fixed capacity.
	if points[1].Blocked <= points[0].Blocked {
		t.Errorf("blocked did not grow with population: %d vs %d",
			points[0].Blocked, points[1].Blocked)
	}
	if points[1].Duration <= points[0].Duration {
		t.Errorf("storm time did not grow: %v vs %v", points[0].Duration, points[1].Duration)
	}
	t.Logf("\n%s", R1Table(points))
}

func TestA2VocoderCostSweep(t *testing.T) {
	costs := []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	points, err := RunA2VocoderCost(1, 3*time.Second, costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(costs) {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanDelay <= points[i-1].MeanDelay {
			t.Errorf("mean delay not increasing: cost %v -> %v, delay %v -> %v",
				points[i-1].Cost, points[i].Cost,
				points[i-1].MeanDelay, points[i].MeanDelay)
		}
		// The cost is one transcode hop on the uplink path, so the delay
		// delta must equal the cost delta exactly (deterministic network).
		wantDelta := points[i].Cost - points[i-1].Cost
		gotDelta := points[i].MeanDelay - points[i-1].MeanDelay
		if gotDelta != wantDelta {
			t.Errorf("delay delta %v != cost delta %v (cost %v)",
				gotDelta, wantDelta, points[i].Cost)
		}
		// Deterministic processing cost must not read as jitter.
		if points[i].Jitter != points[0].Jitter {
			t.Errorf("jitter changed with transcode cost: %v vs %v",
				points[i].Jitter, points[0].Jitter)
		}
	}
	t.Logf("\n%s", A2Table(points))
}

func TestA3RadioLatencySweep(t *testing.T) {
	ums := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond}
	points, err := RunA3RadioLatencySweep(1, ums)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		// The §6 winner must not flip at any radio latency.
		if p.VGPRSSetup >= p.TRSetup {
			t.Errorf("Um=%v: vGPRS %v >= TR %v — comparison flipped",
				p.Um, p.VGPRSSetup, p.TRSetup)
		}
		// The TR handicap must grow with Um latency: per-call PDP
		// activation costs radio round trips.
		if i > 0 {
			prev := points[i-1]
			if p.TRSetup-p.VGPRSSetup <= prev.TRSetup-prev.VGPRSSetup {
				t.Errorf("handicap not growing: Um %v->%v gap %v->%v",
					prev.Um, p.Um,
					prev.TRSetup-prev.VGPRSSetup, p.TRSetup-p.VGPRSSetup)
			}
		}
	}
	t.Logf("\n%s", A3Table(points))
}

func TestLossSweepShape(t *testing.T) {
	points, err := RunLossSweep(1, []float64{0, 0.10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4 (2 rates x 2 scenarios)", len(points))
	}
	for _, p := range points {
		if p.Seeds != 3 {
			t.Fatalf("%+v: seeds = %d, want 3", p, p.Seeds)
		}
		if p.Succeeded != p.Seeds {
			t.Fatalf("%.0f%% %s: %d/%d succeeded (%s)", p.Rate*100,
				p.Scenario, p.Succeeded, p.Seeds, p.FailureExamples)
		}
		if p.Rate == 0 && p.Retransmits != 0 {
			t.Fatalf("lossless %s: %d retransmits, want 0", p.Scenario, p.Retransmits)
		}
		if p.Rate > 0 && p.Retransmits == 0 {
			t.Fatalf("lossy %s: no retransmits recorded", p.Scenario)
		}
		if p.MeanElapsedNs <= 0 || p.MaxElapsedNs < p.MeanElapsedNs {
			t.Fatalf("%+v: implausible elapsed stats", p)
		}
	}
	if LossTable(points).String() == "" {
		t.Fatal("empty loss table")
	}
}
