// Package scenario layers deterministic workloads over the netsim
// topologies: mobility churn across a cell grid (location-update policies
// plus inter-VMSC handoff storms), flash-crowd re-registration after a
// feigned VMSC restart, and a day-in-the-life mixed soak (Poisson call
// arrivals, roamer PSTN terminations, background GPRS data).
//
// Every scenario drives the simulation from a driver-owned seeded RNG and
// advances virtual time in fixed steps, so a (config, seed) pair replays
// byte-identically — the determinism tests run each scenario twice and
// check the trace against a committed digest.
package scenario

import (
	"math/rand"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// Fingerprint captures a run's deterministic outcome for replay
// comparison: the full event trace plus the engine's delivery counters.
type Fingerprint struct {
	Trace     string
	Delivered uint64
	Now       time.Duration
	Entries   int
	// Rec is the recorder the trace came from (nil when not tracing), for
	// assertions on the messages themselves rather than their names.
	Rec *trace.Recorder
}

// fingerprintOf snapshots a network's trace state (nil recorder — NoTrace
// runs — fingerprints only the counters).
func fingerprintOf(n *netsim.VGPRSNet) *Fingerprint {
	f := &Fingerprint{Delivered: n.Env.Delivered(), Now: n.Env.Now()}
	if n.Rec != nil {
		f.Trace = n.Rec.Dump()
		f.Entries = n.Rec.Len()
		f.Rec = n.Rec
	}
	return f
}

// tick is the driver's decision interval: scenario logic runs between
// RunUntil steps of this size, so every driver action lands on a fixed
// virtual-time grid.
const tick = time.Second

// runFor advances env through whole ticks until d has elapsed.
func runFor(env *sim.Env, d time.Duration) {
	deadline := env.Now() + d
	for env.Now() < deadline {
		step := deadline - env.Now()
		if step > tick {
			step = tick
		}
		env.RunUntil(env.Now() + step)
	}
}

// runUntil advances env in ticks until done reports true or the window
// elapses, returning done's final verdict.
func runUntil(env *sim.Env, window time.Duration, done func() bool) bool {
	deadline := env.Now() + window
	for {
		if done() {
			return true
		}
		if env.Now() >= deadline {
			return false
		}
		step := deadline - env.Now()
		if step > tick {
			step = tick
		}
		env.RunUntil(env.Now() + step)
	}
}

// newRNG builds the driver-owned random stream. Scenario decisions must
// come from here, never from the Env's per-node streams: the driver runs
// outside any node's dispatch context, and its draws must not perturb (or
// be perturbed by) the nodes' own randomness.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5ce9a110))
}
