package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinySizes runs every workload's full code path in a few seconds.
var tinySizes = sizes{
	stormSubs: 400, stormWave: 100,
	churnResident: 400, churnCalls: 200, churnWave: 50,
	mediaWorlds: 2, mediaCalls: 4, mediaTalk: 6 * time.Second, mediaSlice: 2 * time.Second,
	lossyRounds: 3, lossyMS: 12, lossyCalls: 6, lossRate: 0.05,
	regionRounds: 2, regions: 4, msPerRegion: 10,
	spanBuffer: 1 << 10, // small enough that every workload reduces in chunks
}

// TestWorkloads runs each workload untraced and traced at tiny scale. A
// pass fails on any verification error (population not resident, leftover
// after cancel-all, a call not released, a frame missing, residual state),
// so a result at all means the outputs were checked.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(w, 1, 0, &tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if r.Passes != minPasses || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("passes %d attempted %d failed %d", r.Passes, r.Attempted, r.Failed)
			}
			if err := r.Metrics.complete(endToEnd); err != nil {
				t.Error(err)
			}
			for _, m := range endToEnd {
				if !(r.Metrics[m.name] > 0) {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, r.Metrics[m.name])
				}
			}

			tr, err := measureTraced(w, 1, 0, &tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Metrics.complete(perLayer); err != nil {
				t.Error(err)
			}
			for _, m := range perLayer {
				v := tr.Metrics[m.name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.name, v)
				}
				if len(m.on) == 0 {
					continue
				}
				if m.appliesTo(w.name) && v == 0 {
					t.Errorf("%s is defined on %s but reads 0", m.name, w.name)
				}
				if !m.appliesTo(w.name) && v != 0 {
					t.Errorf("%s is not defined on %s but reads %v", m.name, w.name, v)
				}
			}
			for _, name := range []string{"failed_share", "netsim.residual", "slab.imbalance", "gprs.ggsn.queue_drops"} {
				if tr.Metrics[name] != 0 {
					t.Errorf("%s = %v, want 0", name, tr.Metrics[name])
				}
			}
			if tr.Metrics["sim.events_total"] == 0 || tr.Metrics["sim.kernel_ns_per_event"] == 0 {
				t.Errorf("events_total %v kernel_ns_per_event %v", tr.Metrics["sim.events_total"], tr.Metrics["sim.kernel_ns_per_event"])
			}
		})
	}
}

// TestSimulatedMetricsRepeat checks the determinism guard's premise: equal
// seeds give equal simulated values and counts, and on lossy_rounds another
// seed gives other ones.
func TestSimulatedMetricsRepeat(t *testing.T) {
	w := findWorkload("lossy_rounds")
	run := func(seed int64) values {
		r, err := measureTraced(w, seed, 0, &tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	a, b, c := run(7), run(7), run(8)
	differs := false
	for _, m := range perLayer {
		if m.kind != simulated && m.kind != exact {
			continue
		}
		if a[m.name] != b[m.name] {
			t.Errorf("%s: %v then %v on one seed", m.name, a[m.name], b[m.name])
		}
		if a[m.name] != c[m.name] {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave identical simulated values and counts")
	}
}

// TestManifest holds BENCHMARK.json and the Go declarations in step.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []decl, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d measured", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better || (bounded && g.Bound != m.bound) {
				t.Errorf("%s %d: declared %+v, measured %s %s %s %v", kind, i, g, m.name, m.unit, better, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestSpread pins spread to statistics.quantiles(xs, n=4) of Python, the
// rule the benchmark's bounds are judged by.
func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if err := run("nope", 1, 1, false, "", 0); err == nil {
		t.Error("unknown workload accepted")
	}
}
