package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minPasses is the fewest untraced passes a run folds: a median of fewer
// than three is not a median.
const minPasses = 3

// result is one measured run of one workload: every metric of the run's
// kind, by name.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Passes    int     `json:"passes"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"` // host time the run took
	Metrics   values  `json:"metrics"`
}

// fold reduces the passes' values of one metric: host and near-exact values
// to their median; simulated values and counts must agree across passes,
// because every pass runs the same inputs.
func fold(m metric, per []float64) (float64, error) {
	if m.kind == host || m.kind == near {
		return median(per), nil
	}
	for _, v := range per[1:] {
		if v != per[0] {
			return 0, fmt.Errorf("%s is not deterministic: passes of one seed gave %v and %v", m.name, per[0], v)
		}
	}
	return per[0], nil
}

// foldAll folds the named values of several passes, for the declared
// metrics present in every pass.
func foldAll(decl []metric, passes []values) (values, error) {
	out := values{}
	for _, m := range decl {
		var per []float64
		for _, v := range passes {
			if x, ok := v[m.name]; ok {
				per = append(per, x)
			}
		}
		if len(per) == 0 {
			continue
		}
		if len(per) != len(passes) {
			return nil, fmt.Errorf("%s was measured in %d of %d passes", m.name, len(per), len(passes))
		}
		x, err := fold(m, per)
		if err != nil {
			return nil, err
		}
		out[m.name] = x
	}
	return out, nil
}

// measure runs untraced passes of w for the given host time (at least
// minPasses) and returns the end-to-end metrics.
func measure(w *workload, seed int64, seconds float64, sz *sizes) (*result, error) {
	start := time.Now()
	res := &result{Workload: w.name, Seed: seed}
	var e2e, named []values
	for res.Passes < minPasses || time.Since(start).Seconds() < seconds {
		r, err := runPass(w, seed, sz, nil, false)
		if err != nil {
			return nil, err
		}
		res.Passes++
		res.Attempted += r.attempted
		res.Failed += r.failed
		e2e = append(e2e, r.e2e)
		named = append(named, r.vals)
	}
	// The named results are not reported here, but folding them checks that
	// every simulated value and count repeated across the passes.
	if _, err := foldAll(perLayer, named); err != nil {
		return nil, err
	}
	var err error
	if res.Metrics, err = foldAll(endToEnd, e2e); err != nil {
		return nil, err
	}
	res.Seconds = time.Since(start).Seconds()
	return res, res.Metrics.complete(endToEnd)
}

// measureTraced alternates an untraced reference pass with a traced pass of
// w until the host time is used (at least one pair), then runs the
// micro-benchmarks on what the trace saw, and returns the per-layer metrics.
func measureTraced(w *workload, seed int64, seconds float64, sz *sizes) (*result, error) {
	start := time.Now()
	res := &result{Workload: w.name, Seed: seed, Traced: true}
	red := newReduction(seed)
	var named, all []values
	var refTimed, trTimed []float64
	var tracedOps int
	var tracedEv uint64
	for res.Passes == 0 || time.Since(start).Seconds() < seconds {
		ref, err := runPass(w, seed, sz, nil, true)
		if err != nil {
			return nil, err
		}
		tr := newTracer(red, sz.spanBuffer)
		traced, err := runPass(w, seed, sz, tr, false)
		if err != nil {
			return nil, err
		}
		tr.reduce()
		res.Passes++
		res.Attempted += ref.attempted
		res.Failed += ref.failed
		named = append(named, ref.vals)
		all = append(all, ref.vals, traced.vals)
		refTimed = append(refTimed, ref.timedS)
		trTimed = append(trTimed, traced.timedS)
		tracedOps += traced.ops
		tracedEv += traced.waveEv
	}
	freshHeap()
	if red.deliveries != tracedEv {
		return nil, fmt.Errorf("trace saw %d deliveries in the timed waves, the engine counted %d", red.deliveries, tracedEv)
	}
	if red.unsized != 0 {
		return nil, fmt.Errorf("%d traced messages have no wire codec", red.unsized)
	}

	// Named results, determinism guard, pass-level counts and proc.* come
	// from the untraced passes; the traced passes must agree with them on
	// every simulated value and count.
	if _, err := foldAll(perLayer, all); err != nil {
		return nil, err
	}
	m, err := foldAll(perLayer, named)
	if err != nil {
		return nil, err
	}

	ops := float64(tracedOps)
	for _, l := range nodeLayers {
		a := red.layers[l]
		if a == nil {
			a = &layerAgg{}
		}
		m[l+".deliveries_per_op"] = float64(a.deliveries) / ops
		m[l+".busy_us_per_op"] = float64(a.busyNS) / 1e3 / ops
	}
	for _, i := range interfaces {
		a := red.ifaces[i]
		if a == nil {
			a = &ifaceAgg{}
		}
		m["iface."+i+".msgs_per_op"] = float64(a.msgs) / ops
		m["iface."+i+".bytes_per_op"] = float64(a.bytes) / ops
	}
	m["sim.drops_per_op"] = float64(red.drops) / ops
	m["trace.notes_per_op"] = float64(red.notes) / ops
	m["trace.overhead_share"] = (median(trTimed) - median(refTimed)) / median(refTimed)

	passEv := tracedEv / uint64(res.Passes)
	kernelNS := kernelMicro(seed, red.links, passEv, w.inflight(sz))
	m["sim.kernel_ns_per_event"] = kernelNS
	m["sim.engine_share"] = kernelNS * float64(passEv) / (median(refTimed) * 1e9)
	m["slab.insert_ns"], m["slab.lookup_ns"], m["slab.delete_ns"] = slabMicro(seed, w.population(sz))
	for _, f := range codecFamilies {
		c := red.codecs[f]
		m["codec."+f+".msgs_per_op"] = float64(c.seen) / ops
		enc, dec, err := codecMicro(f, c.kept)
		if err != nil {
			return nil, err
		}
		m["codec."+f+".encode_ns_per_msg"], m["codec."+f+".decode_ns_per_msg"] = enc, dec
	}
	// Metrics not defined on this workload print as 0.
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok && !d.appliesTo(w.name) {
			m[d.name] = 0
		}
	}
	res.Metrics = m
	res.Seconds = time.Since(start).Seconds()
	return res, m.complete(perLayer)
}

func (m metric) appliesTo(workload string) bool {
	if len(m.on) == 0 {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// hostInfo names the host a result was measured on.
type hostInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// spread is the distance between the first and third quartile of xs as a
// share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4): the rule the benchmark's bounds are judged
// by.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 || median(s) == 0 {
		return 0
	}
	const n = 4
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(s))
}
