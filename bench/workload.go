package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"vgprs/internal/sim"
)

// sizes holds every workload's size constants. The benchmark runs fullSizes;
// bench_test.go runs the same code at a scale that finishes in seconds.
// Sizes were chosen on a 2-core host so that one pass takes 2 to 2.5 s and a
// run of -seconds 20 holds eight or more passes (see README.md).
type sizes struct {
	stormSubs, stormWave int // attach_storm: population, closed-loop wave

	churnResident, churnCalls, churnWave int // call_churn

	mediaWorlds int           // media_relay: worlds per pass
	mediaCalls  int           // concurrent calls per world (2 MS each)
	mediaTalk   time.Duration // simulated talk per world
	mediaSlice  time.Duration // simulated time per closed-loop wave

	lossyRounds, lossyMS, lossyCalls int // lossy_rounds
	lossRate                         float64

	regionRounds, regions, msPerRegion int // region_attach, rounds per shard count

	// spanBuffer is how many spans the tracer holds before it reduces them.
	// It is allocated once, before the traced pass starts; a pass with more
	// records reduces in chunks, and the time spent reducing belongs to no
	// span.
	spanBuffer int
}

var fullSizes = sizes{
	stormSubs: 30_000, stormWave: 5_000,
	churnResident: 20_000, churnCalls: 10_000, churnWave: 2_000,
	mediaWorlds: 6, mediaCalls: 32, mediaTalk: 35 * time.Second, mediaSlice: 5 * time.Second,
	lossyRounds: 500, lossyMS: 40, lossyCalls: 20, lossRate: 0.05,
	regionRounds: 40, regions: 4, msPerRegion: 150,
	spanBuffer: 1 << 19,
}

// workload is one named set of inputs. run performs one pass: set-up, the
// timed waves, verification. A pass is a fixed amount of work on a fixed
// seed, so its simulated results and counts repeat exactly; the runner
// repeats passes to fill the measuring time and folds host times to medians.
type workload struct {
	name string
	why  string
	op   string // what one operation is
	// population is the residency the slab micro-benchmark is timed at.
	population func(sz *sizes) int
	// inflight is how many operations one wave keeps in flight, which the
	// engine replay reproduces.
	inflight func(sz *sizes) int
	run      func(p *pass) error
}

var workloads = []workload{
	{
		name:       "attach_storm",
		why:        "population grows from empty through every store's insert path, then cancel-all deletes it: the only workload where memory and store writes show",
		op:         "one subscriber attached (Fig 4 chain: VLR update, GPRS attach, signalling PDP, gatekeeper RRQ)",
		population: func(sz *sizes) int { return sz.stormSubs },
		inflight:   func(sz *sizes) int { return sz.stormWave },
		run:        runAttachStorm,
	},
	{
		name:       "call_churn",
		why:        "MS-to-MS calls at fixed residency: stores read-mostly, call/transaction rows short-lived, stresses vmsc/calls, q931, h323; bypasses store inserts",
		op:         "one MS-to-MS call set up, held and released (Figs 5-6 over the GGSN hairpin)",
		population: func(sz *sizes) int { return sz.churnResident },
		inflight:   func(sz *sizes) int { return sz.churnWave },
		run:        runCallChurn,
	},
	{
		name:       "media_relay",
		why:        "32 lossless calls talking: almost pure event core and gsm/gb/gtp/rtp/codec frame relay, no signalling or store writes",
		op:         "one 20 ms voice frame heard end to end (Um, Abis, A, Gb, Gn, hairpin and back)",
		population: func(sz *sizes) int { return 2 * sz.mediaCalls },
		inflight:   func(sz *sizes) int { return 2 * sz.mediaCalls },
		run:        runMediaRelay,
	},
	{
		name:       "lossy_rounds",
		why:        "many small worlds under 5 % signalling loss: retransmission timers, idempotent responders, pending tables and per-world build cost",
		op:         "one registration or one call set-up completed under loss",
		population: func(sz *sizes) int { return sz.lossyMS },
		inflight:   func(sz *sizes) int { return sz.lossyMS },
		run:        runLossyRounds,
	},
	{
		name:       "region_attach",
		why:        "the same four-region registration on the engine at shards 1 and shards 2: the only place the sharded engine is compared with the sequential one",
		op:         "one MS registered through the radio edge in a four-region network",
		population: func(sz *sizes) int { return sz.regions * sz.msPerRegion },
		inflight:   func(sz *sizes) int { return sz.regions * sz.msPerRegion },
		run:        runRegionAttach,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is the state of one pass of a workload: its inputs, the accumulating
// measurements, and the optional tracer.
type pass struct {
	seed int64
	sz   *sizes
	tr   *tracer // nil when untraced
	// mem turns on MemStats sampling around every wave (stops the world, so
	// only the traced invocation's reference pass pays for it).
	mem bool

	env *sim.Env // the world the next wave runs in

	setup     time.Duration // host time building and populating worlds
	timed     time.Duration // host time inside primary waves
	cpu       time.Duration // process CPU time inside primary waves
	ops       int           // primary operations completed
	failed    int
	builds    int // worlds built
	buildT    time.Duration
	waveEv    uint64        // deliveries inside primary waves
	events    uint64        // deliveries of every retired world
	simTime   time.Duration // final simulated time, summed over retired worlds
	retrans   uint64
	drops     uint64 // GGSN activation-queue drops
	residual  int
	imbalance int

	allocs, allocBytes uint64
	peakHeap           uint64
	liveHeap           uint64

	vals values // named results of this pass

	sample [2]metrics.Sample
}

func newPass(seed int64, sz *sizes, tr *tracer, mem bool) *pass {
	p := &pass{seed: seed, sz: sz, tr: tr, mem: mem, vals: values{}}
	p.sample[0].Name = "/memory/classes/heap/objects:bytes"
	p.sample[1].Name = "/cpu/classes/gc/total:cpu-seconds"
	return p
}

// use makes env the world the following waves run in, and installs the
// pass's tracer on it if the pass is traced.
func (p *pass) use(env *sim.Env) {
	p.env = env
	if p.tr != nil {
		env.SetTracer(p.tr)
	}
}

// retire folds a finished world's totals into the pass.
func (p *pass) retire(env *sim.Env) {
	p.events += env.Delivered()
	p.simTime += env.Now()
}

// build times fn as the construction of one world; it counts as set-up.
func (p *pass) build(fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.builds++
	p.buildT += d
	p.setup += d
}

// prepare times fn as set-up that is not world construction (populating a
// built world, bringing calls up).
func (p *pass) prepare(fn func()) {
	t0 := time.Now()
	fn()
	p.setup += time.Since(t0)
}

// wave times fn as one closed-loop wave of the primary timed region.
func (p *pass) wave(fn func()) { p.timed += p.region(fn, true) }

// side times fn as a secondary region (cancel-all, the sharded rounds): its
// time is the caller's to report, and it is not traced, so the per-op layer
// numbers describe the primary waves alone.
func (p *pass) side(fn func()) time.Duration { return p.region(fn, false) }

func (p *pass) region(fn func(), primary bool) time.Duration {
	var m0, m1 runtime.MemStats
	if p.mem && primary {
		runtime.ReadMemStats(&m0)
	}
	c0 := cpuTime()
	ev0 := p.env.Delivered()
	traced := p.tr != nil && primary
	if traced {
		p.tr.begin()
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if traced {
		p.tr.end()
	}
	if primary {
		p.cpu += cpuTime() - c0
		p.waveEv += p.env.Delivered() - ev0
	}
	if p.mem && primary {
		runtime.ReadMemStats(&m1)
		p.allocs += m1.Mallocs - m0.Mallocs
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	metrics.Read(p.sample[:1])
	if h := p.sample[0].Value.Uint64(); h > p.peakHeap {
		p.peakHeap = h
	}
	return d
}

// residency records the collected live heap at the point the workload holds
// the most state.
func (p *pass) residency() uint64 {
	h := liveHeap()
	if h > p.liveHeap {
		p.liveHeap = h
	}
	return h
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (p *pass) gcCPU() float64 {
	metrics.Read(p.sample[1:])
	return p.sample[1].Value.Float64()
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freshHeap returns the process to an empty heap, so every pass starts from
// the same state whatever ran before it.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// passResult is what the runner keeps of a finished pass.
type passResult struct {
	vals      values  // named results and pass-level counts, by metric name
	e2e       values  // the end-to-end metrics of this pass
	timedS    float64 // primary timed region, host seconds
	attempted int
	failed    int
	ops       int
	waveEv    uint64 // deliveries inside primary waves
}

// runPass runs one pass of w from a fresh heap and derives its results.
func runPass(w *workload, seed int64, sz *sizes, tr *tracer, mem bool) (*passResult, error) {
	freshHeap()
	p := newPass(seed, sz, tr, mem)
	gc0 := p.gcCPU()
	cpu0 := cpuTime()
	began := time.Now()
	if err := w.run(p); err != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", w.name, seed, err)
	}
	wall := time.Since(began)
	cpu := cpuTime() - cpu0
	gc := p.gcCPU() - gc0
	if p.ops == 0 || p.timed <= 0 || p.builds == 0 {
		return nil, fmt.Errorf("%s (seed %d): pass completed no operations", w.name, seed)
	}
	ops := float64(p.ops)
	r := &passResult{
		vals: p.vals, timedS: p.timed.Seconds(),
		attempted: p.ops + p.failed, failed: p.failed, ops: p.ops, waveEv: p.waveEv,
	}
	r.vals["failed_share"] = float64(p.failed) / float64(p.ops+p.failed)
	r.vals["sim.events_total"] = float64(p.events)
	r.vals["sim.final_time_ms"] = simMS(p.simTime)
	r.vals["sim.events_per_op"] = float64(p.waveEv) / ops
	r.vals["netsim.retransmits_per_op"] = float64(p.retrans) / ops
	r.vals["gprs.ggsn.queue_drops"] = float64(p.drops)
	r.vals["netsim.residual"] = float64(p.residual)
	r.vals["slab.imbalance"] = float64(p.imbalance)
	r.e2e = values{
		"setup_s":       p.setup.Seconds(),
		"ops_per_s":     ops / p.timed.Seconds(),
		"pass_s":        wall.Seconds(),
		"cpu_us_per_op": p.cpu.Seconds() * 1e6 / ops,
		"live_heap_mb":  float64(p.liveHeap) / (1 << 20),
	}
	gcShare := 0.0
	if cpu > 0 {
		gcShare = gc / cpu.Seconds()
	}
	// The allocation counts are zero unless the pass sampled MemStats.
	r.vals["proc.allocs_per_op"] = float64(p.allocs) / ops
	r.vals["proc.alloc_bytes_per_op"] = float64(p.allocBytes) / ops
	r.vals["proc.gc_cpu_share"] = gcShare
	r.vals["proc.cpu_s"] = cpu.Seconds()
	r.vals["proc.peak_heap_mb"] = float64(p.peakHeap) / (1 << 20)
	r.vals["netsim.build_us_per_world"] = p.buildT.Seconds() * 1e6 / float64(p.builds)
	return r, nil
}

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
