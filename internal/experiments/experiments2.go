package experiments

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/h323"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
)

// C2Point is one population size in the context-residency trade-off.
type C2Point struct {
	NumMS        int
	VGPRSIdleCtx int
	TRIdleCtx    int
	VGPRSMOSetup time.Duration
	TRMOSetup    time.Duration
}

// RunC2ContextResidency sweeps MS population sizes and reports, for each,
// the idle PDP-context count held at the SGSN (the §6 resource cost of
// vGPRS's always-on signalling context) against the MO call-setup latency
// (the cost TR 23.923 pays instead).
func RunC2ContextResidency(seed int64, sizes []int) ([]C2Point, error) {
	return runSweep(sizes, func(size int) (C2Point, error) {
		p := C2Point{NumMS: size}

		vn := netsim.BuildVGPRS(netsim.VGPRSOptions{
			Seed: seed, NumMS: size, NoTrace: true, AutoAnswerDelay: time.Millisecond,
		})
		if err := vn.RegisterAll(); err != nil {
			return p, err
		}
		p.VGPRSIdleCtx = vn.SGSN.ActiveContexts()
		d, err := oneVGPRSMOCall(vn)
		if err != nil {
			return p, err
		}
		p.VGPRSMOSetup = d

		tn := netsim.BuildTR23923(netsim.TR23923Options{
			Seed: seed, NumMS: size, NoTrace: true, AutoAnswer: time.Millisecond,
		})
		if err := tn.RegisterAll(); err != nil {
			return p, err
		}
		// Let the post-registration deactivations drain.
		tn.Env.RunUntil(tn.Env.Now() + 10*time.Second)
		p.TRIdleCtx = tn.SGSN.ActiveContexts()
		td, err := oneTRMOCall(tn)
		if err != nil {
			return p, err
		}
		p.TRMOSetup = td
		return p, nil
	})
}

func oneVGPRSMOCall(n *netsim.VGPRSNet) (time.Duration, error) {
	ms := n.MSs[0]
	start := n.Env.Now()
	var established time.Duration
	ms.SetOnConnected(func(uint32) { established = n.Env.Now() })
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		return 0, err
	}
	n.Env.RunUntil(n.Env.Now() + 20*time.Second)
	if established == 0 {
		return 0, fmt.Errorf("experiments: vGPRS MO call never connected")
	}
	if ms.State() == gsm.MSInCall {
		if err := ms.Hangup(n.Env); err != nil {
			return 0, err
		}
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	return established - start, nil
}

func oneTRMOCall(n *netsim.TR23923Net) (time.Duration, error) {
	ms := n.MSs[0]
	start := n.Env.Now()
	var established time.Duration
	ref, err := ms.Call(n.Env, netsim.TerminalAlias(0))
	if err != nil {
		return 0, err
	}
	end := n.Env.Now() + 30*time.Second
	for n.Env.Now() < end {
		if st, ok := ms.Term.CallState(ref); ok && st == h323.LegConnected {
			established = n.Env.Now()
			break
		}
		if !n.Env.Step() {
			break
		}
	}
	if established == 0 {
		return 0, fmt.Errorf("experiments: TR MO call never connected")
	}
	if err := ms.Hangup(n.Env, ref); err != nil {
		return 0, err
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	return established - start, nil
}

// C2Table renders the residency trade-off.
func C2Table(points []C2Point) *metrics.Table {
	t := metrics.NewTable(
		"C2: PDP-context residency vs call-setup cost (paper §6 trade-off)",
		"MSs", "vGPRS idle ctx", "TR idle ctx", "vGPRS MO setup", "TR MO setup")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.NumMS),
			fmt.Sprintf("%d", p.VGPRSIdleCtx),
			fmt.Sprintf("%d", p.TRIdleCtx),
			metrics.FormatDuration(p.VGPRSMOSetup),
			metrics.FormatDuration(p.TRMOSetup))
	}
	return t
}

// C3Point is one voice-quality measurement.
type C3Point struct {
	Scheme    string
	PSJitter  time.Duration
	MeanDelay time.Duration
	P95Delay  time.Duration
	Jitter    time.Duration
	Frames    uint64
}

// RunC3VoiceQuality measures mouth-to-ear delay and interarrival jitter at
// the H.323 terminal: vGPRS's circuit-switched air leg against the
// TR 23.923 packet-switched leg under increasing radio contention (the §6
// "real-time communication" argument).
func RunC3VoiceQuality(seed int64, talkFor time.Duration, psJitters []time.Duration) ([]C3Point, error) {
	type c3Arm struct {
		scheme string
		dtx    bool
		tr     bool
		pj     time.Duration
	}
	arms := []c3Arm{
		// vGPRS: dedicated TCH — no contention jitter by construction.
		{scheme: "vGPRS (CS air leg)"},
		// vGPRS with DTX: the vocoder's silence suppression gates the
		// uplink frames (GSM DTX), roughly halving media bandwidth at
		// identical latency/jitter.
		{scheme: "vGPRS (CS air leg, DTX)", dtx: true},
	}
	// TR 23.923: packet-switched air leg under each contention level.
	for _, pj := range psJitters {
		arms = append(arms, c3Arm{scheme: "TR 23.923 (PS air leg)", tr: true, pj: pj})
	}
	return runSweep(arms, func(a c3Arm) (C3Point, error) {
		var term *h323.Terminal
		if a.tr {
			tn := netsim.BuildTR23923(netsim.TR23923Options{
				Seed: seed, Talk: true, PSJitter: a.pj, KeepPDPActive: true, NoTrace: true,
			})
			if err := tn.RegisterAll(); err != nil {
				return C3Point{}, err
			}
			if _, err := tn.MSs[0].Call(tn.Env, netsim.TerminalAlias(0)); err != nil {
				return C3Point{}, err
			}
			tn.Env.RunUntil(tn.Env.Now() + 3*time.Second + talkFor)
			term = tn.Terminal
		} else {
			vn := netsim.BuildVGPRS(netsim.VGPRSOptions{
				Seed: seed, Talk: true, DTX: a.dtx, NoTrace: true,
			})
			if err := vn.RegisterAll(); err != nil {
				return C3Point{}, err
			}
			if err := vn.MSs[0].Dial(vn.Env, netsim.TerminalAlias(0)); err != nil {
				return C3Point{}, err
			}
			vn.Env.RunUntil(vn.Env.Now() + 3*time.Second + talkFor)
			term = vn.Terminals[0]
		}
		if term.Media.Received() == 0 {
			return C3Point{}, fmt.Errorf("experiments: %s media never flowed (jitter %v)", a.scheme, a.pj)
		}
		delays := metrics.NewSeries(a.scheme)
		for _, d := range term.Media.Delays() {
			delays.Add(d)
		}
		return C3Point{
			Scheme:    a.scheme,
			PSJitter:  a.pj,
			MeanDelay: term.Media.MeanDelay(),
			P95Delay:  delays.Percentile(95),
			Jitter:    term.Media.Jitter(),
			Frames:    term.Media.Received(),
		}, nil
	})
}

// C3Table renders the voice-quality comparison.
func C3Table(points []C3Point) *metrics.Table {
	t := metrics.NewTable(
		"C3: uplink voice quality at the H.323 terminal (paper §6 'real-time communication')",
		"scheme", "radio contention", "mean delay", "p95 delay", "RFC3550 jitter", "frames")
	for _, p := range points {
		contention := "-"
		if p.PSJitter > 0 {
			contention = metrics.FormatDuration(p.PSJitter)
		}
		t.AddRow(p.Scheme, contention,
			metrics.FormatDuration(p.MeanDelay),
			metrics.FormatDuration(p.P95Delay),
			metrics.FormatDuration(p.Jitter),
			fmt.Sprintf("%d", p.Frames))
	}
	return t
}
