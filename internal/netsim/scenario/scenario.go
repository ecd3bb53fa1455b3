// Package scenario layers deterministic workloads over the netsim
// topologies: mobility churn across a cell grid (location-update policies
// plus inter-VMSC handoff storms), flash-crowd re-registration after a
// feigned VMSC restart, and a day-in-the-life mixed soak (Poisson call
// arrivals, roamer PSTN terminations, background GPRS data).
//
// Every scenario drives the simulation from a driver-owned seeded RNG and
// advances virtual time in fixed steps, so a (config, seed) pair replays
// byte-identically — the determinism tests run each scenario twice with a
// streaming trace digest installed and check it against a committed one.
package scenario

import (
	"math/rand"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// Fingerprint captures a run's engine counters for replay comparison; the
// trace itself goes to the config's Tracer as it happens.
type Fingerprint struct {
	Delivered uint64
	Now       time.Duration
}

// fingerprintOf snapshots a network's delivery count and clock.
func fingerprintOf(n *netsim.VGPRSNet) *Fingerprint {
	return &Fingerprint{Delivered: n.Env.Delivered(), Now: n.Env.Now()}
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
