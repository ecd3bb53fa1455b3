package netsim

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/sim"
)

// This file is the deterministic chaos harness: scripted link faults over
// the BuildVGPRS topology plus canned scenarios (registration, MS-to-MS
// call setup) that must succeed eventually under loss — within the
// signalling planes' bounded retry budgets — or fail cleanly with a typed
// error when a link is down for good. Everything draws from the Env's
// seeded RNG, so a (seed, plan) pair replays exactly.

// LinkFault scripts one fault on the bidirectional link A<->B. From/Until
// bound the fault window in virtual time measured from Apply; a zero Until
// means the fault holds for the rest of the run. When the window closes
// the link is restored to a clean state (no loss, no duplication, up).
type LinkFault struct {
	A, B sim.NodeID
	// Loss drops each delivery independently with this probability.
	Loss float64
	// Dup duplicates each delivered message independently with this
	// probability.
	Dup float64
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) to
	// each delivery — the delay-variation axis of the media chaos matrix.
	// Keep media-leg jitter well under the 20 ms vocoder frame interval
	// (see MediaChaosPlan): the zero-alloc talk path reuses per-call
	// buffers on the assumption that each hop's retention stays inside
	// one frame beat.
	Jitter time.Duration
	// Down fails the link outright for the window.
	Down bool
	// From is when the fault engages (offset from Apply; zero = now).
	From time.Duration
	// Until is when the link heals (offset from Apply; zero = never).
	Until time.Duration
}

// FaultPlan is a scripted set of link faults. Plans should not overlap in
// time on the same link: healing restores the link to pristine rather than
// to a previous fault's state.
type FaultPlan []LinkFault

// Apply schedules every fault in the plan on env. It returns an error if a
// fault references a link the topology does not have — a scripting bug,
// surfaced rather than silently ignored.
//
// The engage/heal toggles run in endpoint A's scheduling context
// (AfterNode), so a toggle that lands on the same instant as other events
// orders among them by A's event key: after those scheduled by lower-indexed
// nodes, before those of higher-indexed nodes and A's own later ones
// (pinned by TestTraceDigestsUnderChaos' fault-toggle-tie case).
func (p FaultPlan) Apply(env *sim.Env) error {
	for i := range p {
		f := p[i]
		ab := env.LinkBetween(f.A, f.B)
		ba := env.LinkBetween(f.B, f.A)
		if ab == nil || ba == nil {
			return fmt.Errorf("netsim: fault plan references missing link %s<->%s", f.A, f.B)
		}
		engage := func() {
			for _, l := range [2]*sim.Link{ab, ba} {
				l.Loss, l.Dup, l.Jitter, l.Down = f.Loss, f.Dup, f.Jitter, f.Down
			}
		}
		heal := func() {
			for _, l := range [2]*sim.Link{ab, ba} {
				l.Loss, l.Dup, l.Jitter, l.Down = 0, 0, 0, false
			}
		}
		if f.From <= 0 {
			engage()
		} else {
			env.AfterNode(f.A, f.From, engage)
		}
		if f.Until > 0 {
			env.AfterNode(f.A, f.Until, heal)
		}
	}
	return nil
}

// CoreSignallingLinks lists the BuildVGPRS links that carry signalling
// between fixed network elements: MAP (B, D, Gr, Gc), Gb, GTP (Gn), and
// the H.323 RAS/Q.931 path out of the GPRS core (Gi, GK LAN). The radio
// legs (Um, Abis, A) are excluded — the radio interface has its own L2
// machinery the fault model does not cover — as are the terminal LAN
// links, so scenarios distinguish core faults from endpoint faults.
func CoreSignallingLinks() [][2]sim.NodeID {
	return [][2]sim.NodeID{
		{"VMSC-1", "VLR-1"},
		{"VLR-1", "HLR"},
		{"VMSC-1", "SGSN-1"},
		{"SGSN-1", "GGSN-1"},
		{"SGSN-1", "HLR"},
		{"GGSN-1", "HLR"},
		{"GGSN-1", "GI"},
		{"GI", "GK"},
	}
}

// UniformLossPlan scripts independent loss at the given rate on every core
// signalling link, engaged immediately and never healed.
func UniformLossPlan(rate float64) FaultPlan {
	links := CoreSignallingLinks()
	plan := make(FaultPlan, 0, len(links))
	for _, l := range links {
		plan = append(plan, LinkFault{A: l[0], B: l[1], Loss: rate})
	}
	return plan
}

// MediaLinks lists the core legs the voice hairpin rides: Gb (VMSC↔SGSN)
// and Gn (SGSN↔GGSN). The radio legs are excluded for the same reason as in
// CoreSignallingLinks.
func MediaLinks() [][2]sim.NodeID {
	return [][2]sim.NodeID{
		{"VMSC-1", "SGSN-1"},
		{"SGSN-1", "GGSN-1"},
	}
}

// MaxMediaJitter caps per-link delay jitter on the media legs. The
// zero-alloc talk path pipelines reusable buffers with a 20 ms beat; the
// longest buffer-retention chain (three media-leg hops) must stay inside
// one beat, so per-link jitter is held to a fifth of the frame interval.
const MaxMediaJitter = 4 * time.Millisecond

// MediaChaosPlan scripts loss and delay jitter on both media legs for the
// window [from, until) measured from Apply (zero until = rest of the run).
// Jitter above MaxMediaJitter is clamped.
func MediaChaosPlan(loss float64, jitter time.Duration, from, until time.Duration) FaultPlan {
	if jitter > MaxMediaJitter {
		jitter = MaxMediaJitter
	}
	links := MediaLinks()
	plan := make(FaultPlan, 0, len(links))
	for _, l := range links {
		plan = append(plan, LinkFault{
			A: l[0], B: l[1], Loss: loss, Jitter: jitter, From: from, Until: until,
		})
	}
	return plan
}

// ProcedureError reports a signalling procedure that failed *cleanly*
// under injected faults: the scenario ran to its deadline without hanging
// and the failure is attributable to a named procedure.
type ProcedureError struct {
	Procedure string // "registration" or "call-setup"
	Seed      int64
	Detail    error
}

func (e *ProcedureError) Error() string {
	return fmt.Sprintf("chaos %s (seed %d): %v", e.Procedure, e.Seed, e.Detail)
}

func (e *ProcedureError) Unwrap() error { return e.Detail }

// ChaosResult summarises one chaos scenario run.
type ChaosResult struct {
	// Registered reports whether every MS and terminal registered.
	Registered bool
	// CallConnected reports whether the MS-to-MS call reached the
	// in-call state at both parties (call scenario only).
	CallConnected bool
	// Retransmits is the total signalling retransmission count across
	// all planes at the end of the run.
	Retransmits uint64
	// Elapsed is the virtual time the scenario consumed.
	Elapsed time.Duration
}

// ChaosSigProfile is the loss-tolerant retransmission profile the chaos
// scenarios document as their retry budget. The single-hop MAP/GTP/GMM
// planes get 8 retries at a 150 ms initial RTO (capped backoff exhausts
// ~8.5 s after the first send); the H.323 RAS/Q.931 planes, whose PDUs
// hairpin through up to six lossy links each way when both parties live
// behind the same VMSC, get a transport-grade 24 — in real deployments
// H.225 rides TCP, which retries on this order. At 10% per-link loss these
// budgets put per-transaction residual failure below 1e-3.
func ChaosSigProfile() *SigProfile {
	return &SigProfile{
		RTO:         150 * time.Millisecond,
		Retries:     8,
		H323Retries: 24,
	}
}

// chaosNet builds a BuildVGPRS network with the chaos retransmission
// profile armed on every plane and the fault plan applied at t=0.
func chaosNet(seed int64, numMS int, plan FaultPlan) (*VGPRSNet, error) {
	n := BuildVGPRS(VGPRSOptions{
		Seed:    seed,
		NumMS:   numMS,
		NoTrace: true,
		Sig:     ChaosSigProfile(),
	})
	if err := plan.Apply(n.Env); err != nil {
		return nil, err
	}
	return n, nil
}

// chaosWindow bounds each chaos procedure. The H.323 budget exhausts
// ~28 s after a first send (24 retries at 150 ms, backoff capped at
// 1.2 s), so 30 s bounds even a worst-case run without truncating a
// recoverable one.
const chaosWindow = 30 * time.Second

// runUntilDone advances env in 100 ms steps until done reports true or the
// window elapses, so scenario timings reflect when the procedure actually
// finished rather than a fixed drain deadline. It reports done's final
// verdict.
func runUntilDone(env *sim.Env, window time.Duration, done func() bool) bool {
	deadline := env.Now() + window
	for {
		if done() {
			return true
		}
		if env.Now() >= deadline {
			return false
		}
		step := deadline - env.Now()
		if step > 100*time.Millisecond {
			step = 100 * time.Millisecond
		}
		env.RunUntil(env.Now() + step)
	}
}

// registered reports whether every MS and terminal has completed
// registration.
func (n *VGPRSNet) registered() bool {
	for _, ms := range n.MSs {
		if ms.State() != gsm.MSIdle {
			return false
		}
	}
	for _, term := range n.Terminals {
		if !term.Registered() {
			return false
		}
	}
	return true
}

// RunChaosRegistration powers on one MS and one terminal under the fault
// plan and reports whether registration completed within the window. A
// failed registration is returned as a *ProcedureError; the network never
// hangs either way.
func RunChaosRegistration(seed int64, plan FaultPlan) (ChaosResult, error) {
	n, err := chaosNet(seed, 1, plan)
	if err != nil {
		return ChaosResult{}, err
	}
	return n.chaosRegistration(seed)
}

// chaosRegistration is RunChaosRegistration's procedure on a network built
// by chaosNet; tests call it directly to trace or audit the network.
func (n *VGPRSNet) chaosRegistration(seed int64) (ChaosResult, error) {
	start := n.Env.Now()
	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	ok := runUntilDone(n.Env, chaosWindow, n.registered)
	res := ChaosResult{
		Registered:  ok,
		Retransmits: n.SignallingRetransmits(),
		Elapsed:     n.Env.Now() - start,
	}
	if !ok {
		return res, &ProcedureError{
			Procedure: "registration", Seed: seed,
			Detail: fmt.Errorf("MS state %v after deadline", n.MSs[0].State()),
		}
	}
	return res, nil
}

// RunChaosCall registers two MSs under the fault plan and then sets up an
// MS-to-MS call, reporting whether both parties reached the in-call state
// within the window. Failures come back as *ProcedureError. Elapsed covers
// dial to conversation, excluding the registration phase.
func RunChaosCall(seed int64, plan FaultPlan) (ChaosResult, error) {
	n, err := chaosNet(seed, 2, plan)
	if err != nil {
		return ChaosResult{}, err
	}
	return n.chaosCall(seed)
}

// chaosCall is RunChaosCall's procedure on a network built by chaosNet.
func (n *VGPRSNet) chaosCall(seed int64) (ChaosResult, error) {
	for _, term := range n.Terminals {
		term.Register(n.Env)
	}
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	if !runUntilDone(n.Env, chaosWindow, n.registered) {
		return ChaosResult{
				Retransmits: n.SignallingRetransmits(),
				Elapsed:     n.Env.Now(),
			}, &ProcedureError{
				Procedure: "registration", Seed: seed,
				Detail: fmt.Errorf("states %v/%v after deadline",
					n.MSs[0].State(), n.MSs[1].State()),
			}
	}
	caller, callee := n.MSs[0], n.MSs[1]
	start := n.Env.Now()
	if dialErr := caller.Dial(n.Env, n.Subscribers[1].MSISDN); dialErr != nil {
		return ChaosResult{Registered: true},
			&ProcedureError{Procedure: "call-setup", Seed: seed, Detail: dialErr}
	}
	inCall := func() bool {
		return caller.State() == gsm.MSInCall && callee.State() == gsm.MSInCall
	}
	ok := runUntilDone(n.Env, chaosWindow, inCall)
	res := ChaosResult{
		Registered:    true,
		CallConnected: ok,
		Retransmits:   n.SignallingRetransmits(),
		Elapsed:       n.Env.Now() - start,
	}
	if !ok {
		return res, &ProcedureError{
			Procedure: "call-setup", Seed: seed,
			Detail: fmt.Errorf("caller %v, callee %v after deadline",
				caller.State(), callee.State()),
		}
	}
	return res, nil
}
