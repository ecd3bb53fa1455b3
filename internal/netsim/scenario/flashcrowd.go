package scenario

import (
	"fmt"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// FlashCrowdConfig parameterises the flash-crowd scenario: a feigned VMSC
// restart that forces the whole population to re-register at once.
type FlashCrowdConfig struct {
	Seed int64
	// NumMS is the population size (default 20).
	NumMS int
	// TCHCapacity bounds the BSC's traffic channels (0 = unlimited).
	TCHCapacity int
	// Plan optionally injects link faults during the storm. Fault windows
	// are measured from the storm's start (the mass power-on), not from
	// build time.
	Plan netsim.FaultPlan
	// Window bounds the recovery phase (default 60s) — comfortably past
	// the chaos profile's retry-budget exhaustion, so an MS still
	// unregistered at the deadline has failed cleanly, not slowly.
	Window time.Duration
	// Tracer, when set, sees every delivery after the build; nil runs untraced.
	Tracer sim.Tracer
}

func (c *FlashCrowdConfig) norm() {
	if c.NumMS <= 0 {
		c.NumMS = 20
	}
	if c.Window <= 0 {
		c.Window = 60 * time.Second
	}
}

// FlashCrowdResult summarises one flash-crowd run.
type FlashCrowdResult struct {
	MSs int `json:"ms"`

	// Recovered/Exhausted partition the population at the deadline:
	// re-registered versus stuck after exhausting their retry budgets.
	Recovered int `json:"recovered"`
	Exhausted int `json:"exhausted"`
	// RecoveryTime is virtual time from the mass power-on until the last
	// MS re-registered (equal to Window when any MS exhausted).
	RecoveryTime time.Duration `json:"recovery_time"`
	// RegisterFailures is the switches' registration-failure count over
	// the storm; Retransmits the signalling-plane total.
	RegisterFailures uint64 `json:"register_failures"`
	Retransmits      uint64 `json:"retransmits"`
	// Residual is the leaked-transient-state count after the run (always
	// audited, even on exhaustion — a failed registration must still
	// drain its transaction state).
	Residual int `json:"residual"`

	Fingerprint *Fingerprint `json:"-"`
}

// TransientCoreOutage scripts a total VLR<->HLR outage covering the
// storm's first d — the canonical recoverable fault for flash-crowd runs:
// location updates stall at the VLR until the link heals, then the retry
// budgets carry everyone through.
func TransientCoreOutage(d time.Duration) netsim.FaultPlan {
	return netsim.FaultPlan{{A: "VLR-1", B: "HLR", Down: true, Until: d}}
}

// RunFlashCrowd builds a single-area network with the chaos retransmission
// profile, registers everyone, then feigns a VMSC restart: every MS powers
// off and back on in the same virtual-time tick, optionally under a fault
// plan. Exhausted retry budgets come back as a *netsim.ProcedureError with
// the per-MS breakdown in the result; a residual-state leak is its own
// error regardless of recovery.
func RunFlashCrowd(cfg FlashCrowdConfig) (FlashCrowdResult, error) {
	cfg.norm()
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed:        cfg.Seed,
		NumMS:       cfg.NumMS,
		NoTrace:     true,
		Sig:         netsim.ChaosSigProfile(),
		TCHCapacity: cfg.TCHCapacity,
	})
	n.Env.SetTracer(cfg.Tracer)
	res := FlashCrowdResult{MSs: cfg.NumMS}
	if err := n.RegisterAll(); err != nil {
		return res, err
	}
	failsBefore := n.VMSC.Stats().RegisterFailers
	retransBefore := n.SignallingRetransmits()

	// The feigned restart: the switch "loses" everyone at once, modelled
	// as a same-tick mass detach. Power-off runs the clean detach
	// signalling (IMSI detach, GPRS detach, URQ), which is what a
	// restarting VMSC's peers would observe as it flushed state.
	for _, ms := range n.MSs {
		if err := ms.PowerOff(n.Env); err != nil {
			return res, fmt.Errorf("scenario flash-crowd (seed %d): power-off: %w", cfg.Seed, err)
		}
	}
	detached := func() bool {
		for _, ms := range n.MSs {
			if ms.State() != gsm.MSDetached {
				return false
			}
		}
		return true
	}
	if !runUntil(n.Env, 30*time.Second, detached) {
		return res, fmt.Errorf("scenario flash-crowd (seed %d): population failed to detach", cfg.Seed)
	}

	// Storm start: faults engage relative to this instant, and every MS
	// re-registers in the same tick.
	if err := cfg.Plan.Apply(n.Env); err != nil {
		return res, err
	}
	start := n.Env.Now()
	for _, ms := range n.MSs {
		ms.PowerOn(n.Env)
	}
	recoveredAll := runUntil(n.Env, cfg.Window, func() bool {
		for _, ms := range n.MSs {
			if ms.State() != gsm.MSIdle {
				return false
			}
		}
		return true
	})
	res.RecoveryTime = n.Env.Now() - start

	for _, ms := range n.MSs {
		if ms.State() == gsm.MSIdle {
			res.Recovered++
		} else {
			res.Exhausted++
		}
	}
	res.RegisterFailures = n.VMSC.Stats().RegisterFailers - failsBefore
	res.Retransmits = n.SignallingRetransmits() - retransBefore

	// Let in-flight retries and dialogues drain before the leak audit —
	// exhausted registrations must fail clean, not leave transactions
	// behind.
	runFor(n.Env, 15*time.Second)
	residual := n.Residual()
	res.Residual = residual.Total()
	res.Fingerprint = fingerprintOf(n)

	if res.Residual != 0 {
		return res, fmt.Errorf("scenario flash-crowd (seed %d): residual state after storm:\n%s",
			cfg.Seed, residual.String())
	}
	if !recoveredAll {
		return res, &netsim.ProcedureError{
			Procedure: "flash-crowd", Seed: cfg.Seed,
			Detail: fmt.Errorf("%d/%d MSs exhausted retry budgets within %v",
				res.Exhausted, cfg.NumMS, cfg.Window),
		}
	}
	return res, nil
}
