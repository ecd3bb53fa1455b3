package main

import (
	"fmt"
	"sort"
)

// kind says how a metric behaves between two runs of the same code and
// seed, which decides how the runner folds passes and how -repeat judges
// repeats.
type kind uint8

const (
	// host: host time (or host memory); varies run to run. Passes fold to
	// the median; repeats are judged by spread against the bound.
	host kind = iota
	// simulated: simulated time or quality; exact for equal seed.
	simulated
	// exact: a count made by the program; exact for equal seed.
	exact
	// near: a count that is almost exact (heap bytes, allocations); passes
	// fold to the median and repeats are judged like host metrics.
	near
)

func (k kind) String() string {
	return [...]string{"H", "S", "X", "N"}[k]
}

// metric declares one number the benchmark prints. BENCHMARK.json lists the
// same names, units and directions; bench_test.go holds the two in step.
type metric struct {
	name   string
	unit   string
	higher bool // true when higher is better
	kind   kind
	// bound is the share by which an end-to-end metric may worsen before a
	// change counts as a regression, and the run-to-run spread -repeat
	// tolerates. Of the per-layer metrics only the named results carry one,
	// as a spread tolerance; the others are explanations and have none.
	bound float64
	// on lists the workloads a per-layer metric is defined on; empty means
	// all. Where it is not defined it prints as 0.
	on []string
}

// endToEnd are the metrics measured with no tracer installed. Every one is
// defined, and never zero, on every workload: the driver compares each of
// them on each workload.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", kind: host, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, kind: host, bound: 0.25},
	{name: "pass_s", unit: "s", kind: host, bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", kind: host, bound: 0.25},
	{name: "live_heap_mb", unit: "MB", kind: near, bound: 0.05},
}

// Layer, interface and codec-family names, in report order.
var (
	nodeLayers = []string{"vmsc", "vlr", "hlr", "gprs.sgsn", "gprs.ggsn", "h323.gk",
		"ipnet.router", "gsm.ms", "gsm.bts", "gsm.bsc", "driver"}
	interfaces    = []string{"Um", "Abis", "A", "B", "D", "Gr", "Gc", "Gb", "Gn", "Gi", "IP"}
	codecFamilies = []string{"map", "gmm", "gtp", "gb", "ras", "q931", "gsm", "rtp"}
)

// perLayer are the metrics of the traced invocation: the workload's own
// named results from an untraced reference pass, the determinism guard, and
// the per-module numbers reduced from the trace.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	storm, churn, media, lossy, region := "attach_storm", "call_churn", "media_relay", "lossy_rounds", "region_attach"
	m := []metric{
		// Named results, untraced.
		{name: "attach_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{storm}},
		{name: "cancel_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{storm}},
		{name: "bytes_per_sub", unit: "B", kind: near, bound: 0.02, on: []string{storm}},
		{name: "calls_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{churn}},
		{name: "frames_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{media}},
		{name: "procedures_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{lossy}},
		{name: "registrations_per_s", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{region}},
		{name: "registrations_per_s_sharded", unit: "1/s", higher: true, kind: host, bound: 0.10, on: []string{region}},
		{name: "registration_sim_ms_p50", unit: "sim_ms", kind: simulated, on: []string{storm, lossy}},
		{name: "registration_sim_ms_p99", unit: "sim_ms", kind: simulated, on: []string{storm, lossy}},
		{name: "call_setup_sim_ms_p50", unit: "sim_ms", kind: simulated, on: []string{churn, lossy}},
		{name: "call_setup_sim_ms_p99", unit: "sim_ms", kind: simulated, on: []string{churn, lossy}},
		{name: "mouth_to_ear_sim_ms", unit: "sim_ms", kind: simulated, on: []string{media}},
		{name: "mos_min", unit: "mos", higher: true, kind: simulated, on: []string{media}},
		{name: "failed_share", unit: "share", kind: exact},
		// Determinism guard.
		{name: "sim.events_total", unit: "count", kind: exact},
		{name: "sim.final_time_ms", unit: "sim_ms", kind: simulated},
	}
	for _, l := range nodeLayers {
		m = append(m,
			metric{name: l + ".deliveries_per_op", unit: "count", kind: exact},
			metric{name: l + ".busy_us_per_op", unit: "us", kind: host})
	}
	for _, i := range interfaces {
		m = append(m,
			metric{name: "iface." + i + ".msgs_per_op", unit: "count", kind: exact},
			metric{name: "iface." + i + ".bytes_per_op", unit: "B", kind: exact})
	}
	m = append(m,
		metric{name: "sim.events_per_op", unit: "count", kind: exact},
		metric{name: "sim.kernel_ns_per_event", unit: "ns", kind: host},
		metric{name: "sim.engine_share", unit: "share", kind: host},
		metric{name: "sim.drops_per_op", unit: "count", kind: exact},
		metric{name: "sim.shard_speedup", unit: "ratio", higher: true, kind: host, bound: 0.10, on: []string{region}},
		metric{name: "slab.insert_ns", unit: "ns", kind: host},
		metric{name: "slab.lookup_ns", unit: "ns", kind: host},
		metric{name: "slab.delete_ns", unit: "ns", kind: host},
	)
	for _, f := range codecFamilies {
		m = append(m,
			metric{name: "codec." + f + ".msgs_per_op", unit: "count", kind: exact},
			metric{name: "codec." + f + ".encode_ns_per_msg", unit: "ns", kind: host},
			metric{name: "codec." + f + ".decode_ns_per_msg", unit: "ns", kind: host})
	}
	m = append(m,
		metric{name: "netsim.build_us_per_world", unit: "us", kind: host},
		metric{name: "netsim.retransmits_per_op", unit: "count", kind: exact},
		metric{name: "gprs.ggsn.queue_drops", unit: "count", kind: exact},
		metric{name: "netsim.residual", unit: "count", kind: exact},
		metric{name: "slab.imbalance", unit: "count", kind: exact},
		metric{name: "proc.allocs_per_op", unit: "count", kind: near, bound: 0.02},
		metric{name: "proc.alloc_bytes_per_op", unit: "B", kind: near, bound: 0.02},
		metric{name: "proc.gc_cpu_share", unit: "share", kind: host},
		metric{name: "proc.cpu_s", unit: "s", kind: host},
		metric{name: "proc.peak_heap_mb", unit: "MB", kind: near},
		metric{name: "trace.notes_per_op", unit: "count", kind: exact},
		metric{name: "trace.overhead_share", unit: "share", kind: host},
	)
	return m
}

// values maps metric names to measured values.
type values map[string]float64

// complete checks that vals holds exactly the declared names.
func (v values) complete(decl []metric) error {
	for _, m := range decl {
		if _, ok := v[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	if len(v) != len(decl) {
		known := make(map[string]bool, len(decl))
		for _, m := range decl {
			known[m.name] = true
		}
		for name := range v {
			if !known[name] {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
