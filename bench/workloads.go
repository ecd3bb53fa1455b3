package main

import (
	"fmt"
	"math/rand"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/metrics"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
)

// percentiles stores the nearest-rank p50 and p99 of lat under prefix. The
// p99 has ten samples beyond it from 1,000 samples up; every full-size
// workload has more (README.md states the counts).
func percentiles(v values, prefix string, lat *metrics.Series) {
	v[prefix+"_p50"] = simMS(lat.Percentile(50))
	v[prefix+"_p99"] = simMS(lat.Percentile(99))
}

// runUntil advances env in steps until done reports true or the window
// elapses, and reports done's final verdict.
func runUntil(env *sim.Env, window, step time.Duration, done func() bool) bool {
	deadline := env.Now() + window
	for !done() {
		if env.Now() >= deadline {
			return false
		}
		env.RunUntil(env.Now() + step)
	}
	return true
}

// allIn reports whether every MS is in the given state.
func allIn(mss []*gsm.MS, st gsm.MSState) func() bool {
	return func() bool {
		for _, ms := range mss {
			if ms.State() != st {
				return false
			}
		}
		return true
	}
}

// runAttachStorm attaches the population from empty in closed-loop waves,
// measures the heap at residency, and cancels everybody again.
func runAttachStorm(p *pass) error {
	n, wave := p.sz.stormSubs, p.sz.stormWave
	var c *coreNet
	var err error
	p.build(func() { c, err = buildCore(p.seed, n) })
	if err != nil {
		return err
	}
	p.use(c.env)

	// DESIGN.md §8: the first wave warms lazily built structures; the heap
	// delta from there to full residency is what one subscriber costs.
	var base uint64
	for lo := 0; lo < n; lo += wave {
		hi := min(lo+wave, n)
		p.wave(func() { c.attachWave(lo, hi) })
		if lo == 0 {
			base = liveHeap()
		}
	}
	full := p.residency()
	p.ops = c.driver.accepts
	p.failed = n - c.driver.accepts
	if err := c.checkResident(n); err != nil {
		return err
	}
	if full > base && n > wave {
		p.vals["bytes_per_sub"] = float64(full-base) / float64(n-wave)
	}
	p.vals["attach_per_s"] = float64(p.ops) / p.timed.Seconds()
	percentiles(p.vals, "registration_sim_ms", c.driver.regLat)

	var cancel time.Duration
	for lo := 0; lo < n; lo += wave {
		hi := min(lo+wave, n)
		cancel += p.side(func() { c.cancelWave(lo, hi) })
	}
	p.vals["cancel_per_s"] = float64(n) / cancel.Seconds()
	if c.driver.cancelAcks != n {
		return fmt.Errorf("cancel-all: %d of %d cancels acknowledged", c.driver.cancelAcks, n)
	}
	if left := c.leftover(); left != 0 {
		return fmt.Errorf("cancel-all left %d records resident", left)
	}
	return c.finish(p)
}

// finish audits a quiesced coreNet and folds its totals into the pass.
func (c *coreNet) finish(p *pass) error {
	p.residual += c.residual()
	p.imbalance += c.slabImbalance()
	p.retrans += c.retransmits()
	p.drops += c.ggsn.QueueDrops()
	p.retire(c.env)
	if p.residual != 0 || p.imbalance != 0 {
		return fmt.Errorf("quiesced network holds %d in-flight records, slab imbalance %d", p.residual, p.imbalance)
	}
	return nil
}

// runCallChurn holds the population resident and runs MS-to-MS calls over
// it in closed-loop waves.
func runCallChurn(p *pass) error {
	n, calls, wave := p.sz.churnResident, p.sz.churnCalls, p.sz.churnWave
	if 2*wave > n {
		return fmt.Errorf("a wave of %d calls needs %d resident subscribers, have %d", wave, 2*wave, n)
	}
	var c *coreNet
	var err error
	p.build(func() { c, err = buildCore(p.seed, n) })
	if err != nil {
		return err
	}
	p.use(c.env)

	// Set-up: attach everybody, and draw each wave's disjoint caller/callee
	// pairs so lookups land on a different part of the stores every wave.
	var pairs [][2]int32
	p.prepare(func() {
		for lo := 0; lo < n; lo += wave {
			c.attachWave(lo, min(lo+wave, n))
		}
		rng := rand.New(rand.NewSource(p.seed))
		pairs = make([][2]int32, 0, calls)
		for len(pairs) < calls {
			perm := rng.Perm(n)
			for k := 0; k < wave && len(pairs) < calls; k++ {
				pairs = append(pairs, [2]int32{int32(perm[2*k]), int32(perm[2*k+1])})
			}
		}
	})
	if err := c.checkResident(n); err != nil {
		return err
	}
	p.residency()

	for lo := 0; lo < calls; lo += wave {
		hi := min(lo+wave, calls)
		p.wave(func() { c.callWave(pairs[lo:hi], lo) })
	}
	d := c.driver
	p.ops = d.established
	p.failed = calls - d.established
	if d.established != calls || d.releases != 2*calls || c.vmsc.ActiveCalls() != 0 {
		return fmt.Errorf("%d of %d calls established, %d of %d legs released, %d still active",
			d.established, calls, d.releases, 2*calls, c.vmsc.ActiveCalls())
	}
	if err := c.checkResident(n); err != nil {
		return err
	}
	p.vals["calls_per_s"] = float64(p.ops) / p.timed.Seconds()
	percentiles(p.vals, "call_setup_sim_ms", d.callLat)
	return c.finish(p)
}

// seededPairs pairs the MSs of a BuildVGPRS world as caller and callee from
// the seed.
func seededPairs(seed int64, mss, calls int) [][2]int {
	perm := rand.New(rand.NewSource(seed)).Perm(mss)
	pairs := make([][2]int, calls)
	for k := range pairs {
		pairs[k] = [2]int{perm[2*k], perm[2*k+1]}
	}
	return pairs
}

// finishVGPRS audits a drained BuildVGPRS world and folds its totals into
// the pass.
func finishVGPRS(p *pass, n *netsim.VGPRSNet) error {
	res := n.Residual()
	p.residual += res.Total()
	p.drops += n.GGSN.QueueDrops()
	p.retire(n.Env)
	if res.Total() != 0 {
		return fmt.Errorf("residual state after clear-down:\n%s", res.String())
	}
	return nil
}

// runMediaRelay brings the calls up, then times nothing but talk: every
// 20 ms frame of every party rides the full hairpin. A pass talks in several
// worlds, because the frame rate of one world depends on where its memory
// happens to land (README.md, sizing).
func runMediaRelay(p *pass) error {
	calls := p.sz.mediaCalls
	scorer := metrics.DefaultEModel()
	var frames, expected uint64
	var delay time.Duration
	mosMin := 5.0
	for world := 0; world < p.sz.mediaWorlds; world++ {
		seed := p.seed + int64(world)
		var n *netsim.VGPRSNet
		p.build(func() {
			n = netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: seed, NumMS: 2 * calls, Talk: true, NoTrace: true})
		})
		p.use(n.Env)
		pairs := seededPairs(seed, 2*calls, calls)
		var err error
		p.prepare(func() {
			if err = n.RegisterAll(); err != nil {
				return
			}
			for _, pr := range pairs {
				if err = n.MSs[pr[0]].Dial(n.Env, n.Subscribers[pr[1]].MSISDN); err != nil {
					return
				}
			}
			if !runUntil(n.Env, 30*time.Second, 100*time.Millisecond, allIn(n.MSs, gsm.MSInCall)) {
				err = fmt.Errorf("%d concurrent calls did not come up", calls)
				return
			}
			for _, ms := range n.MSs {
				ms.ResetMedia()
			}
		})
		if err != nil {
			return err
		}

		for t := time.Duration(0); t < p.sz.mediaTalk; t += p.sz.mediaSlice {
			p.wave(func() { n.Env.RunUntil(n.Env.Now() + p.sz.mediaSlice) })
		}
		if world == 0 {
			p.residency()
		}

		// Score before clearing: a call is as good as its worse listener.
		for _, ms := range n.MSs {
			rep := ms.MediaReport()
			frames += rep.Frames
			expected += rep.Expected
			delay += rep.MeanDelay
			if s := scorer.Score(rep.MeanDelay, rep.Jitter, rep.Expected, rep.Frames); s.MOS < mosMin {
				mosMin = s.MOS
			}
		}

		for _, pr := range pairs {
			if err := n.MSs[pr[0]].Hangup(n.Env); err != nil {
				return err
			}
		}
		if !runUntil(n.Env, 30*time.Second, 100*time.Millisecond, allIn(n.MSs, gsm.MSIdle)) {
			return fmt.Errorf("calls did not clear")
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		if n.VMSC.ActiveCalls() != 0 {
			return fmt.Errorf("%d calls still active after clear-down", n.VMSC.ActiveCalls())
		}
		p.retrans += n.SignallingRetransmits()
		if err := finishVGPRS(p, n); err != nil {
			return err
		}
	}
	p.ops = int(frames)
	p.failed = int(expected - frames)
	want := uint64(p.sz.mediaWorlds*2*calls) * uint64(p.sz.mediaTalk/(20*time.Millisecond))
	// Frames in flight when a window closes are neither heard nor missed.
	if frames != expected || frames < want-uint64(p.sz.mediaWorlds*4*calls) || frames > want {
		return fmt.Errorf("heard %d frames, sequence spans imply %d, talk time implies %d", frames, expected, want)
	}
	p.vals["frames_per_s"] = float64(frames) / p.timed.Seconds()
	p.vals["mouth_to_ear_sim_ms"] = simMS(delay / time.Duration(p.sz.mediaWorlds*2*calls))
	p.vals["mos_min"] = mosMin
	return nil
}

// Windows and poll step of the lossy rounds, in simulated time.
const (
	lossyWindow = 60 * time.Second
	lossyPoll   = 50 * time.Millisecond
)

// runLossyRounds runs many small worlds, each registering its population
// and setting up calls under uniform loss on every core signalling link.
// The loss is healed before clear-down: release and detach have no
// retransmission (README.md, findings), so they run on clean links.
func runLossyRounds(p *pass) error {
	mss, calls := p.sz.lossyMS, p.sz.lossyCalls
	regLat, callLat := metrics.NewSeries("registration"), metrics.NewSeries("call set-up")
	for round := 0; round < p.sz.lossyRounds; round++ {
		seed := p.seed + int64(round)
		var n *netsim.VGPRSNet
		var err error
		p.build(func() {
			n = netsim.BuildVGPRS(netsim.VGPRSOptions{
				Seed: seed, NumMS: mss, NoTrace: true, Sig: netsim.ChaosSigProfile(),
			})
			err = netsim.UniformLossPlan(p.sz.lossRate).Apply(n.Env)
		})
		if err != nil {
			return err
		}
		p.use(n.Env)
		pairs := seededPairs(seed, mss, calls)
		connected := 0
		var dialled time.Duration // simulated instant the round's calls were dialled
		for _, pr := range pairs {
			n.MSs[pr[0]].SetOnConnected(func(uint32) {
				connected++
				callLat.Add(n.Env.Now() - dialled)
			})
		}

		registered := 0
		p.wave(func() {
			start := n.Env.Now()
			for _, t := range n.Terminals {
				t.Register(n.Env)
			}
			for _, ms := range n.MSs {
				ms.PowerOn(n.Env)
			}
			// Registration times are as fine as the poll step.
			seen := make([]bool, mss)
			runUntil(n.Env, lossyWindow, lossyPoll, func() bool {
				for i, ms := range n.MSs {
					if !seen[i] && ms.State() == gsm.MSIdle {
						seen[i] = true
						registered++
						regLat.Add(n.Env.Now() - start)
					}
				}
				return registered == mss
			})

			dialled = n.Env.Now()
			placed := 0
			for _, pr := range pairs {
				if n.MSs[pr[0]].State() != gsm.MSIdle || n.MSs[pr[1]].State() != gsm.MSIdle {
					continue // a party failed to register; the call counts as failed
				}
				if n.MSs[pr[0]].Dial(n.Env, n.Subscribers[pr[1]].MSISDN) == nil {
					placed++
				}
			}
			// The hook times each call exactly; the poll only bounds the wait.
			runUntil(n.Env, lossyWindow, lossyPoll, func() bool { return connected == placed })
		})
		p.ops += registered + connected
		p.failed += (mss - registered) + (calls - connected)
		p.retrans += n.SignallingRetransmits()
		if round == 0 {
			p.residency()
		}

		// Clear-down on clean links, then audit.
		if err := netsim.UniformLossPlan(0).Apply(n.Env); err != nil {
			return err
		}
		for _, pr := range pairs {
			if st := n.MSs[pr[0]].State(); st == gsm.MSInCall || st == gsm.MSWaitAnswer || st == gsm.MSDialing {
				if err := n.MSs[pr[0]].Hangup(n.Env); err != nil {
					return err
				}
			}
		}
		idleOrOff := func() bool {
			for _, ms := range n.MSs {
				if st := ms.State(); st != gsm.MSIdle && st != gsm.MSDetached {
					return false
				}
			}
			return true
		}
		if !runUntil(n.Env, lossyWindow, lossyPoll, idleOrOff) {
			return fmt.Errorf("round %d: calls did not clear", round)
		}
		// An MS that reads idle may still be owed the network's Release; one
		// that powers off before it arrives is set idle again by it
		// (README.md, findings). Let clearing finish first.
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		for _, ms := range n.MSs {
			if ms.State() == gsm.MSIdle {
				if err := ms.PowerOff(n.Env); err != nil {
					return err
				}
			}
		}
		n.Env.RunUntil(n.Env.Now() + 30*time.Second)
		if !allIn(n.MSs, gsm.MSDetached)() || n.VMSC.ActiveCalls() != 0 {
			return fmt.Errorf("round %d: population failed to detach", round)
		}
		if err := finishVGPRS(p, n); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	p.vals["procedures_per_s"] = float64(p.ops) / p.timed.Seconds()
	percentiles(p.vals, "registration_sim_ms", regLat)
	percentiles(p.vals, "call_setup_sim_ms", callLat)
	return nil
}

// runRegionAttach registers the same four-region worlds on the sequential
// engine and on two shards.
func runRegionAttach(p *pass) error {
	perWorld := p.sz.regions * p.sz.msPerRegion
	var seqEvents []uint64
	var sharded time.Duration
	for _, shards := range []int{1, 2} {
		for round := 0; round < p.sz.regionRounds; round++ {
			var n *netsim.MultiRegionNet
			p.build(func() {
				n = netsim.BuildMultiRegion(netsim.MultiRegionOptions{
					Seed: p.seed + int64(round), Regions: p.sz.regions, MSPerRegion: p.sz.msPerRegion,
					Shards: shards, NoTrace: true,
				})
			})
			p.use(n.Env)
			var err error
			if shards == 1 {
				p.wave(func() { err = n.RegisterAll() })
			} else {
				sharded += p.side(func() { err = n.RegisterAll() })
			}
			if err != nil {
				return fmt.Errorf("shards %d round %d: %w", shards, round, err)
			}
			if shards == 1 && round == 0 {
				p.residency()
			}
			p.imbalance += n.HLR.SlabImbalance()
			p.residual += n.HLR.OutstandingDialogues()
			p.retrans += n.HLR.Retransmits()
			for r, reg := range n.Regions {
				if reg.VMSC.MSTable() != p.sz.msPerRegion || reg.GK.Registered() != p.sz.msPerRegion ||
					reg.GGSN.ActiveContexts() != p.sz.msPerRegion || reg.VLR.Registered() != p.sz.msPerRegion {
					return fmt.Errorf("shards %d round %d region %d: VMSC %d GK %d GGSN %d VLR %d resident, want %d",
						shards, round, r, reg.VMSC.MSTable(), reg.GK.Registered(),
						reg.GGSN.ActiveContexts(), reg.VLR.Registered(), p.sz.msPerRegion)
				}
				p.residual += reg.VMSC.PendingTransactions() + reg.VMSC.ActiveCalls() +
					reg.VLR.PendingUpdates() + reg.VLR.OutstandingDialogues() +
					reg.SGSN.PendingTransactions() + reg.SGSN.OutstandingDialogues() +
					reg.GGSN.PendingCreates() + reg.GGSN.OutstandingDialogues() + reg.GGSN.QueuedPackets() +
					reg.BSC.ChannelsInUse()
				p.imbalance += reg.VMSC.SlabImbalance() + reg.VLR.SlabImbalance() + reg.SGSN.SlabImbalance() +
					reg.GGSN.SlabImbalance() + reg.GK.SlabImbalance()
				p.retrans += reg.VMSC.Retransmits() + reg.VLR.Retransmits() +
					reg.SGSN.Retransmits() + reg.GGSN.Retransmits()
				p.drops += reg.GGSN.QueueDrops()
			}
			if p.residual != 0 || p.imbalance != 0 {
				return fmt.Errorf("shards %d round %d: %d in-flight records, slab imbalance %d",
					shards, round, p.residual, p.imbalance)
			}
			// The engine's contract: the same world delivers the same events
			// at any shard count.
			if shards == 1 {
				seqEvents = append(seqEvents, n.Env.Delivered())
				p.ops += perWorld
			} else if n.Env.Delivered() != seqEvents[round] {
				return fmt.Errorf("round %d: %d deliveries at shards 2, %d at shards 1",
					round, n.Env.Delivered(), seqEvents[round])
			}
			p.retire(n.Env)
		}
	}
	p.vals["registrations_per_s"] = float64(p.ops) / p.timed.Seconds()
	p.vals["registrations_per_s_sharded"] = float64(p.ops) / sharded.Seconds()
	p.vals["sim.shard_speedup"] = p.timed.Seconds() / sharded.Seconds()
	return nil
}
