package experiments

import (
	"fmt"
	"sort"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/isup"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/trace"
)

// C5Result holds per-interface signalling message counts for one procedure
// on one scheme, plus the total encoded wire bytes (computed through the
// real codecs).
type C5Result struct {
	Scheme    string
	Procedure string
	ByIface   map[string]int
	Total     int
	Bytes     int
}

// RunC5SignallingLoad counts signalling messages per interface for the
// registration procedure and for one MO call, on vGPRS and on TR 23.923.
func RunC5SignallingLoad(seed int64) ([]C5Result, error) {
	var out []C5Result

	count := func(scheme, proc string, rec *trace.Recorder) {
		total, bytes := 0, 0
		filtered := make(map[string]int)
		byteByIface := netsim.WireBytesByIface(rec)
		for iface, n := range rec.MessagesByInterface() {
			// Media and raw encapsulation repeat per frame; the
			// signalling-load table counts control-plane messages.
			if iface == "IP" || iface == "Gi" {
				continue
			}
			filtered[iface] = n
			total += n
			bytes += byteByIface[iface]
		}
		out = append(out, C5Result{
			Scheme: scheme, Procedure: proc, ByIface: filtered, Total: total, Bytes: bytes,
		})
	}

	// vGPRS registration.
	vn := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
	if err := vn.RegisterAll(); err != nil {
		return nil, err
	}
	count("vGPRS", "registration", vn.Rec)

	// vGPRS MO call (trace reset between phases).
	vn.Rec.Reset()
	if _, err := oneVGPRSMOCall(vn); err != nil {
		return nil, err
	}
	count("vGPRS", "MO call + release", vn.Rec)
	if err := drained("vGPRS", vn.Residual()); err != nil {
		return nil, err
	}

	// TR 23.923 registration.
	tn := netsim.BuildTR23923(netsim.TR23923Options{Seed: seed})
	if err := tn.RegisterAll(); err != nil {
		return nil, err
	}
	tn.Env.RunUntil(tn.Env.Now() + 10*time.Second)
	count("TR 23.923", "registration", tn.Rec)

	tn.Rec.Reset()
	if _, err := oneTRMOCall(tn); err != nil {
		return nil, err
	}
	tn.Env.RunUntil(tn.Env.Now() + 10*time.Second)
	count("TR 23.923", "MO call + release", tn.Rec)
	return out, drained("TR 23.923", tn.Residual())
}

// C5Table renders the signalling-load comparison.
func C5Table(results []C5Result) *metrics.Table {
	t := metrics.NewTable(
		"C5: signalling messages per procedure (control plane, per interface)",
		"scheme", "procedure", "interfaces", "total", "wire bytes")
	for _, r := range results {
		keys := make([]string, 0, len(r.ByIface))
		for k := range r.ByIface {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		detail := ""
		for i, k := range keys {
			if i > 0 {
				detail += " "
			}
			detail += fmt.Sprintf("%s:%d", k, r.ByIface[k])
		}
		t.AddRow(r.Scheme, r.Procedure, detail, fmt.Sprintf("%d", r.Total),
			fmt.Sprintf("%d", r.Bytes))
	}
	return t
}

// TromboneEntry is a single measured tromboning scenario.
type TromboneEntry struct {
	Scenario     string
	IntlSeizures int
	LocalSeizure int
	CostUnits    int
	Setup        time.Duration
	Connected    bool
}

// RunF7F8Tromboning runs the incoming-roamer-call scenario three ways: the
// Fig 7 GSM baseline (two international trunks), the Fig 8 vGPRS path (one
// local trunk), and the Fig 8 gatekeeper-miss fallback.
func RunF7F8Tromboning(seed int64) ([]TromboneEntry, error) {
	scenarios := []string{"fig7", "fig8", "fallback"}
	return runSweep(scenarios, func(scenario string) (TromboneEntry, error) {
		if scenario == "fig7" {
			// Fig 7: GSM baseline.
			g := netsim.BuildRoamingGSM(seed)
			if err := g.Register(); err != nil {
				return TromboneEntry{}, err
			}
			start := g.Env.Now()
			var connectedAt time.Duration
			g.PhoneY.SetOnConnected(func(uint32) { connectedAt = g.Env.Now() })
			if _, err := g.PhoneY.Call(g.Env, netsim.RoamerMSISDN); err != nil {
				return TromboneEntry{}, err
			}
			g.Env.RunUntil(g.Env.Now() + 20*time.Second)
			return TromboneEntry{
				Scenario:     "Fig 7: GSM roamer call (tromboned)",
				IntlSeizures: g.InternationalSeizures(),
				CostUnits:    g.InternationalSeizures() * isup.TrunkInternational.CostUnits(),
				Setup:        connectedAt - start,
				Connected:    connectedAt > 0,
			}, nil
		}

		// Fig 8: vGPRS elimination; the fallback arm is the same topology
		// with a gatekeeper miss (different seed, PSTN destination).
		name := "Fig 8: vGPRS roamer call (local VoIP)"
		vseed, callee := seed, netsim.RoamerMSISDN
		if scenario == "fallback" {
			name = "Fig 8 fallback: GK miss -> PSTN"
			vseed, callee = seed+1, netsim.UKFixedNumber
		}
		v := netsim.BuildRoamingVGPRS(vseed)
		if err := v.Register(); err != nil {
			return TromboneEntry{}, err
		}
		start := v.Env.Now()
		var connectedAt time.Duration
		v.PhoneY.SetOnConnected(func(uint32) { connectedAt = v.Env.Now() })
		if _, err := v.PhoneY.Call(v.Env, callee); err != nil {
			return TromboneEntry{}, err
		}
		v.Env.RunUntil(v.Env.Now() + 20*time.Second)
		return TromboneEntry{
			Scenario:     name,
			IntlSeizures: v.InternationalSeizures(),
			LocalSeizure: v.LocalTrunks.TotalSeizures(),
			CostUnits: v.InternationalSeizures()*isup.TrunkInternational.CostUnits() +
				v.LocalTrunks.TotalSeizures()*isup.TrunkLocal.CostUnits(),
			Setup:     connectedAt - start,
			Connected: connectedAt > 0,
		}, nil
	})
}

// TromboneTable renders the tromboning experiment.
func TromboneTable(entries []TromboneEntry) *metrics.Table {
	t := metrics.NewTable(
		"F7/F8: tromboning elimination (paper Figs 7-8)",
		"scenario", "intl trunks", "local trunks", "cost units", "setup", "connected")
	for _, e := range entries {
		t.AddRow(e.Scenario,
			fmt.Sprintf("%d", e.IntlSeizures),
			fmt.Sprintf("%d", e.LocalSeizure),
			fmt.Sprintf("%d", e.CostUnits),
			metrics.FormatDuration(e.Setup),
			fmt.Sprintf("%v", e.Connected))
	}
	return t
}

// F9Result holds the handover measurements.
type F9Result struct {
	ExecutionTime  time.Duration // HandoverRequired -> SendEndSignal
	VoiceGap       time.Duration // longest downlink speech gap at the MS
	TrunksHeld     int
	MediaContinued bool
	// HandbackExecution is the GSM 03.09 subsequent handover back onto
	// the anchor: Handover Required at the relay -> Handover Complete at
	// the anchor. TrunksAfterHandback counts circuits still held.
	HandbackExecution   time.Duration
	TrunksAfterHandback int
	// VMSCToVMSCExecution is the same measurement with a second VMSC as
	// the target (the paper's §7 "same procedure" remark).
	VMSCToVMSCExecution time.Duration
}

// RunF9Handoff measures the Fig 9 inter-system handoff: execution time,
// speech interruption at the MS, and anchor-trunk occupancy.
func RunF9Handoff(seed int64) (F9Result, error) {
	var res F9Result
	n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: seed, Talk: true})
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	ms := n.MSs[0]
	if err := ms.Dial(n.Env, netsim.TerminalAlias(0)); err != nil {
		return res, err
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	if ms.State() != gsm.MSInCall {
		return res, fmt.Errorf("experiments: call not established before handoff")
	}

	// Track downlink speech gaps.
	var lastFrame time.Duration
	var maxGap time.Duration
	ms.SetOnFrame(func(gsm.TCHFrame) {
		now := n.Env.Now()
		if lastFrame > 0 && now-lastFrame > maxGap {
			maxGap = now - lastFrame
		}
		lastFrame = now
	})
	n.Env.RunUntil(n.Env.Now() + time.Second)

	if !n.RunHandoff(ms, 10*time.Second) {
		return res, fmt.Errorf("experiments: handover did not complete")
	}
	m, err := n.Rec.ExpectFlow(netsim.Fig9Handoff("MSC-2"))
	if err != nil {
		return res, err
	}
	res.ExecutionTime = m.Span("required", "end")

	framesBefore := ms.FramesReceived()
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	res.MediaContinued = ms.FramesReceived() > framesBefore
	res.VoiceGap = maxGap
	res.TrunksHeld = n.ETrunks.InUse()

	// Subsequent handback (GSM 03.09): the MS returns to the anchor.
	n.Rec.Reset()
	ms.ReportNeighbor(n.Env, n.HomeCell)
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	if m, err = n.Rec.ExpectFlow(netsim.Handback("MSC-2")); err != nil {
		return res, err
	}
	res.HandbackExecution = m.Span("required", "complete")
	res.TrunksAfterHandback = n.ETrunks.InUse()

	// The §7 variant: identical procedure with a second VMSC as target.
	v := netsim.BuildHandoffVMSC(netsim.VGPRSOptions{Seed: seed, Talk: true})
	if err := v.RegisterAll(); err != nil {
		return res, err
	}
	if err := v.MSs[0].Dial(v.Env, netsim.TerminalAlias(0)); err != nil {
		return res, err
	}
	v.Env.RunUntil(v.Env.Now() + 3*time.Second)
	if !v.RunHandoff(v.MSs[0], 10*time.Second) {
		return res, fmt.Errorf("experiments: VMSC-to-VMSC handover did not complete")
	}
	if m, err = v.Rec.ExpectFlow(netsim.Fig9Handoff("VMSC-2")); err != nil {
		return res, err
	}
	res.VMSCToVMSCExecution = m.Span("required", "end")
	return res, nil
}

// F9Table renders the handoff measurements.
func F9Table(r F9Result) *metrics.Table {
	t := metrics.NewTable(
		"F9: inter-system handoff, VMSC anchor -> legacy MSC (paper Fig 9)",
		"metric", "measured")
	t.AddRow("handover execution, VMSC -> legacy MSC", metrics.FormatDuration(r.ExecutionTime))
	t.AddRow("handover execution, VMSC -> VMSC (§7)", metrics.FormatDuration(r.VMSCToVMSCExecution))
	t.AddRow("subsequent handback execution (GSM 03.09)", metrics.FormatDuration(r.HandbackExecution))
	t.AddRow("anchor E-trunks held after handback", fmt.Sprintf("%d", r.TrunksAfterHandback))
	t.AddRow("longest downlink speech gap at MS", metrics.FormatDuration(r.VoiceGap))
	t.AddRow("anchor E-trunks held after handoff", fmt.Sprintf("%d", r.TrunksHeld))
	t.AddRow("media continued after handoff", fmt.Sprintf("%v", r.MediaContinued))
	return t
}

// F1Result holds the GPRS attach/activation measurements.
type F1Result struct {
	AttachAndActivate time.Duration
	DataRTT           time.Duration
}

// RunF1Attach measures the reference GPRS procedures of Fig 1 as performed
// by the VMSC's virtual MS, read from the Fig 4 flow: attach + signalling-PDP
// activation time (step 1.3), and the round trip of the VMSC's RRQ -> RCF
// through the tunnel (steps 1.4-1.5).
func RunF1Attach(seed int64) (F1Result, error) {
	var res F1Result
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed})
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	m, err := n.Rec.ExpectFlow(netsim.Fig4Registration)
	if err != nil {
		return res, err
	}
	res.AttachAndActivate = m.Span("attach", "pdp")
	res.DataRTT = m.Span("rrq", "rcf")
	return res, nil
}

// F1Table renders the attach measurements.
func F1Table(r F1Result) *metrics.Table {
	t := metrics.NewTable(
		"F1: GPRS procedures on the reference architecture (paper Fig 1)",
		"metric", "measured")
	t.AddRow("GPRS attach + PDP activation", metrics.FormatDuration(r.AttachAndActivate))
	t.AddRow("packet RTT through tunnel (RRQ->RCF)", metrics.FormatDuration(r.DataRTT))
	return t
}
