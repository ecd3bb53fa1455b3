package experiments

import (
	"fmt"
	"time"

	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/trace"
	"vgprs/internal/vmsc"
)

// AblationResult holds the DESIGN.md §5 registration-phase ablation.
type AblationResult struct {
	Variant string
	Total   time.Duration
}

// RunA1RegistrationAblation measures the Fig 4 registration under the
// design ablations: full procedure, authentication/ciphering disabled, and
// the idle-PDP-deactivation mode (which adds a post-registration
// deactivation but should not delay the Um accept).
func RunA1RegistrationAblation(seed int64) ([]AblationResult, error) {
	variants := []struct {
		name string
		opts netsim.VGPRSOptions
	}{
		{"full (auth + cipher + GPRS + GK)", netsim.VGPRSOptions{Seed: seed}},
		{"auth/cipher disabled", netsim.VGPRSOptions{Seed: seed, AuthDisabled: true}},
		{"idle-PDP deactivation mode", netsim.VGPRSOptions{Seed: seed, DeactivateIdlePDP: true}},
	}
	return runSweep(variants, func(v struct {
		name string
		opts netsim.VGPRSOptions
	}) (AblationResult, error) {
		n := netsim.BuildVGPRS(v.opts)
		if err := n.RegisterAll(); err != nil {
			return AblationResult{}, fmt.Errorf("experiments: %s: %w", v.name, err)
		}
		// The MS's request and accept bound Fig 4 in every variant; the
		// idle-PDP mode requests a static address, so its GGSN skips step
		// 1.3's Gc lookup in between.
		fig4 := netsim.Fig4Registration
		m, err := n.Rec.ExpectFlow(trace.Flow{fig4[0], fig4[len(fig4)-1]})
		if err != nil {
			return AblationResult{}, fmt.Errorf("experiments: %s: %w", v.name, err)
		}
		return AblationResult{Variant: v.name, Total: m.Span("lu", "accept")}, nil
	})
}

// A1Table renders the ablation.
func A1Table(results []AblationResult) *metrics.Table {
	t := metrics.NewTable(
		"A1: registration-latency ablation (DESIGN.md §5)",
		"variant", "Um request -> Um accept")
	for _, r := range results {
		t.AddRow(r.Variant, metrics.FormatDuration(r.Total))
	}
	return t
}

// VocoderPoint is one row of the A2 transcode-cost sweep.
type VocoderPoint struct {
	Cost      time.Duration
	MeanDelay time.Duration
	P95Delay  time.Duration
	Jitter    time.Duration
	Frames    uint64
}

// RunA2VocoderCost sweeps the VMSC's per-frame transcoding delay and
// measures the resulting mouth-to-ear delay at the far H.323 terminal. The
// paper puts the vocoder inside the VMSC (§4); this ablation prices that
// placement: each microsecond of vocoder processing lands 1:1 in one-way
// delay (one transcode hop per direction), while jitter stays untouched
// because the cost is deterministic.
func RunA2VocoderCost(seed int64, talkFor time.Duration, costs []time.Duration) ([]VocoderPoint, error) {
	return runSweep(costs, func(cost time.Duration) (VocoderPoint, error) {
		n := netsim.BuildVGPRS(netsim.VGPRSOptions{
			Seed: seed, Talk: true, NoTrace: true,
			VMSCMutate: func(cfg *vmsc.Config) { cfg.TranscodeCost = cost },
		})
		if err := n.RegisterAll(); err != nil {
			return VocoderPoint{}, fmt.Errorf("experiments: A2 cost=%v: %w", cost, err)
		}
		if err := n.MSs[0].Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
			return VocoderPoint{}, fmt.Errorf("experiments: A2 cost=%v: %w", cost, err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second + talkFor)
		term := n.Terminals[0]
		if term.Media.Received() == 0 {
			return VocoderPoint{}, fmt.Errorf("experiments: A2 cost=%v: media never flowed", cost)
		}
		delays := metrics.NewSeries("A2")
		for _, d := range term.Media.Delays() {
			delays.Add(d)
		}
		return VocoderPoint{
			Cost:      cost,
			MeanDelay: term.Media.MeanDelay(),
			P95Delay:  delays.Percentile(95),
			Jitter:    term.Media.Jitter(),
			Frames:    term.Media.Received(),
		}, nil
	})
}

// A2Table renders the vocoder-cost sweep.
func A2Table(points []VocoderPoint) *metrics.Table {
	t := metrics.NewTable(
		"A2: vocoder transcode-cost sweep (uplink, MS -> terminal)",
		"per-frame cost", "mean delay", "p95 delay", "jitter", "frames")
	for _, p := range points {
		t.AddRow(
			metrics.FormatDuration(p.Cost),
			metrics.FormatDuration(p.MeanDelay),
			metrics.FormatDuration(p.P95Delay),
			metrics.FormatDuration(p.Jitter),
			fmt.Sprintf("%d", p.Frames))
	}
	return t
}

// RadioSweepPoint is one row of the A3 radio-latency sensitivity sweep.
type RadioSweepPoint struct {
	Um         time.Duration
	VGPRSSetup time.Duration
	TRSetup    time.Duration
}

// RunA3RadioLatencySweep re-runs the C1 MO-setup comparison across air-
// interface latencies. EXPERIMENTS.md claims the §6 comparisons are
// profile-independent (who wins, in which direction); this sweep is the
// evidence: vGPRS must beat the TR 23.923 baseline at every radio latency,
// because the TR scheme pays the per-call PDP activation — radio round
// trips — that vGPRS avoids, so its handicap *grows* with Um latency.
func RunA3RadioLatencySweep(seed int64, ums []time.Duration) ([]RadioSweepPoint, error) {
	return runSweep(ums, func(um time.Duration) (RadioSweepPoint, error) {
		lat := netsim.DefaultLatencies()
		lat.Um = um
		v, err := measureVGPRSCalls(seed, 1, true, false, &lat)
		if err != nil {
			return RadioSweepPoint{}, fmt.Errorf("experiments: A3 Um=%v vGPRS: %w", um, err)
		}
		tr, err := measureTRCalls(seed, 1, true, false, &lat)
		if err != nil {
			return RadioSweepPoint{}, fmt.Errorf("experiments: A3 Um=%v TR: %w", um, err)
		}
		return RadioSweepPoint{Um: um, VGPRSSetup: v.Mean(), TRSetup: tr.Mean()}, nil
	})
}

// A3Table renders the sweep.
func A3Table(points []RadioSweepPoint) *metrics.Table {
	t := metrics.NewTable(
		"A3: MO call-setup vs air-interface latency (profile-independence of C1)",
		"Um latency", "vGPRS setup", "TR 23.923 setup", "TR handicap")
	for _, p := range points {
		t.AddRow(
			metrics.FormatDuration(p.Um),
			metrics.FormatDuration(p.VGPRSSetup),
			metrics.FormatDuration(p.TRSetup),
			metrics.FormatDuration(p.TRSetup-p.VGPRSSetup))
	}
	return t
}
