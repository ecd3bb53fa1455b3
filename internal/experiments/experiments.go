// Package experiments implements the reproduction harness: one function per
// paper artifact (Figs 1-9) and per §6 comparison (C1-C5), each running the
// relevant scenario on virtual time and returning both raw measurements and
// a rendered table. cmd/vgprs-bench prints the tables and, with -json,
// writes the BENCH_<id>.json files committed at the repository root.
package experiments

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
)

// RegistrationResult holds the F4 measurements.
type RegistrationResult struct {
	Total        time.Duration // Um request -> Um accept
	GSMPhase     time.Duration // steps 1.1-1.2
	GPRSPhase    time.Duration // step 1.3
	H323Phase    time.Duration // steps 1.4-1.5
	MessageCount int
}

// RunF4Registration measures the Fig 4 registration procedure end to end.
func RunF4Registration(seed int64) (RegistrationResult, error) {
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
	if err := n.RegisterAll(); err != nil {
		return RegistrationResult{}, err
	}
	m, err := n.Rec.ExpectFlow(netsim.Fig4Registration)
	if err != nil {
		return RegistrationResult{}, err
	}
	res := RegistrationResult{
		Total:     m.Span("lu", "accept"),
		GSMPhase:  m.Span("lu", "lu-ack"),
		GPRSPhase: m.Span("lu-ack", "pdp"),
		H323Phase: m.Span("pdp", "rcf"),
	}
	res.MessageCount = n.Rec.Len()
	return res, nil
}

// F4Table renders the F4 result.
func F4Table(r RegistrationResult) *metrics.Table {
	t := metrics.NewTable(
		"F4: vGPRS registration (paper Fig 4, steps 1.1-1.6)",
		"phase", "paper steps", "measured")
	t.AddRow("GSM location update + auth + cipher", "1.1-1.2", metrics.FormatDuration(r.GSMPhase))
	t.AddRow("GPRS attach + signalling PDP", "1.3", metrics.FormatDuration(r.GPRSPhase))
	t.AddRow("gatekeeper registration", "1.4-1.5", metrics.FormatDuration(r.H323Phase))
	t.AddRow("total (to Um accept)", "1.1-1.6", metrics.FormatDuration(r.Total))
	return t
}

// measureVGPRSCalls runs `calls` MO or MT calls on a fresh vGPRS network and
// returns per-call setup latencies (dial/ARQ to conversation). lat overrides
// the link-latency profile (nil = defaults); the A3 sensitivity sweep varies
// it.
func measureVGPRSCalls(seed int64, calls int, mobileOriginated, deactivateIdle bool, lat *netsim.Latencies) (*metrics.Series, error) {
	label := "vGPRS"
	if deactivateIdle {
		label = "vGPRS (idle-PDP-deactivation ablation)"
	}
	kind := "MT"
	if mobileOriginated {
		kind = "MO"
	}
	series := metrics.NewSeries(label + " " + kind)

	// A 1 ms answer delay makes the measurement post-dial signalling
	// delay rather than human reaction time.
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed: seed, DeactivateIdlePDP: deactivateIdle, NoTrace: true,
		AutoAnswerDelay: time.Millisecond, Latencies: lat,
	})
	if err := n.RegisterAll(); err != nil {
		return nil, err
	}
	ms := n.MSs[0]
	term := n.Terminals[0]

	for i := 0; i < calls; i++ {
		start := n.Env.Now()
		var established time.Duration
		if mobileOriginated {
			ms.SetOnConnected(func(uint32) { established = n.Env.Now() })
			if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
				return nil, err
			}
		} else {
			ref, err := term.Call(n.Env, n.Subscribers[0].MSISDN)
			if err != nil {
				return nil, err
			}
			_ = ref
			ms.SetOnConnected(func(uint32) { established = n.Env.Now() })
		}
		n.Env.RunUntil(n.Env.Now() + 20*time.Second)
		if established == 0 {
			return nil, fmt.Errorf("experiments: %s call %d never connected", kind, i)
		}
		series.Add(established - start)
		// Clear the call and let the network quiesce.
		if ms.State() == gsm.MSInCall {
			if err := ms.Hangup(n.Env); err != nil {
				return nil, err
			}
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	}
	return series, drained(label, n.Residual())
}

// measureTRCalls runs `calls` MO or MT calls on a TR 23.923 network, with
// an optional latency profile.
func measureTRCalls(seed int64, calls int, mobileOriginated, keepActive bool, lat *netsim.Latencies) (*metrics.Series, error) {
	label := "TR 23.923"
	if keepActive {
		label = "TR 23.923 (keep-PDP-active ablation)"
	}
	kind := "MT"
	if mobileOriginated {
		kind = "MO"
	}
	series := metrics.NewSeries(label + " " + kind)

	n := netsim.BuildTR23923(netsim.TR23923Options{
		Seed: seed, KeepPDPActive: keepActive, NoTrace: true,
		AutoAnswer: time.Millisecond, Latencies: lat,
	})
	if err := n.RegisterAll(); err != nil {
		return nil, err
	}
	ms := n.MSs[0]
	term := n.Terminal

	for i := 0; i < calls; i++ {
		start := n.Env.Now()
		var established time.Duration
		var ref uint16
		var err error
		if mobileOriginated {
			ref, err = ms.Call(n.Env, netsim.TerminalAlias(0))
		} else {
			ref, err = term.Call(n.Env, n.Subscribers[0].MSISDN)
		}
		if err != nil {
			return nil, err
		}
		end := n.Env.Now() + 30*time.Second
		for n.Env.Now() < end {
			var st h323.LegState
			var ok bool
			if mobileOriginated {
				st, ok = ms.Term.CallState(ref)
			} else {
				st, ok = term.CallState(ref)
			}
			if ok && st == h323.LegConnected {
				established = n.Env.Now()
				break
			}
			if !n.Env.Step() {
				break
			}
		}
		if established == 0 {
			return nil, fmt.Errorf("experiments: TR %s call %d never connected", kind, i)
		}
		series.Add(established - start)
		if mobileOriginated {
			if err := ms.Hangup(n.Env, ref); err != nil {
				return nil, err
			}
		} else if err := term.Hangup(n.Env, ref); err != nil {
			return nil, err
		}
		// Quiesce past the TR linger + deactivation.
		n.Env.RunUntil(n.Env.Now() + 15*time.Second)
	}
	return series, drained(label, n.Residual())
}

// drained is the leak gate at the end of a measurement: it returns an error
// naming every transient record the network still holds.
func drained(what string, r netsim.Residual) error {
	if r.Total() != 0 {
		return fmt.Errorf("experiments: %s left residual state:\n%s", what, r.String())
	}
	return nil
}

// C1Result is the §6 call-setup comparison.
type C1Result struct {
	Series []*metrics.Series
}

// RunC1SetupComparison measures call-setup latency across the four schemes
// the paper's §6 discusses: vGPRS (contexts pre-activated), the TR 23.923
// baseline (per-call activation + network-initiated activation for MT), and
// each side's ablation.
func RunC1SetupComparison(seed int64, calls int) (C1Result, error) {
	var out C1Result
	type c1Run struct {
		vgprs   bool
		mo      bool
		variant bool // deactivateIdle for vGPRS; keepActive for TR
	}
	runs := []c1Run{
		{vgprs: true, mo: true},
		{vgprs: true, mo: false},
		{vgprs: true, mo: true, variant: true},
		{vgprs: true, mo: false, variant: true},
		{vgprs: false, mo: true},
		{vgprs: false, mo: false},
		{vgprs: false, mo: true, variant: true},
	}
	series, err := runSweep(runs, func(r c1Run) (*metrics.Series, error) {
		if r.vgprs {
			return measureVGPRSCalls(seed, calls, r.mo, r.variant, nil)
		}
		return measureTRCalls(seed, calls, r.mo, r.variant, nil)
	})
	if err != nil {
		return out, err
	}
	out.Series = series
	return out, nil
}

// C1Table renders the comparison.
func C1Table(r C1Result) *metrics.Table {
	t := metrics.NewTable(
		"C1: call-setup latency, vGPRS vs TR 23.923 (paper §6 'PDP context activation')",
		"scheme", "calls", "mean", "p95", "max")
	for _, s := range r.Series {
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.Count()),
			metrics.FormatDuration(s.Mean()),
			metrics.FormatDuration(s.Percentile(95)),
			metrics.FormatDuration(s.Max()))
	}
	return t
}
