// Command bench is the repository's benchmark: five named workloads over the
// whole vGPRS stack, end-to-end metrics measured with no tracer installed,
// and a traced run that explains them layer by layer. README.md has the
// tables; BENCHMARK.json at the repository root declares the contract.
//
//	go run . -workload attach_storm -seed 1            end-to-end metrics
//	go run . -workload attach_storm -seed 1 -trace 1   per-layer metrics
//	go run . -workload all -out FILE                   every workload, JSON report
//	go run . -workload media_relay -repeat 5           spread against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "host time to measure for")
		trace   = flag.Int("trace", 0, "1 runs the traced invocation and prints the per-layer metrics")
		out     = flag.String("out", "", "write the results as JSON to this file")
		repeat  = flag.Int("repeat", 0, "run the workload this many times and judge the spread against the bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string, repeat int) error {
	var ws []*workload
	if name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(name); w != nil {
		ws = []*workload{w}
	} else {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q; have %s, all", name, strings.Join(names, ", "))
	}
	decl := endToEnd
	do := measure
	if traced {
		decl, do = perLayer, measureTraced
	}
	if repeat > 0 {
		var errs []error
		for _, w := range ws {
			errs = append(errs, repeatRun(w, seed, seconds, repeat, decl, do))
		}
		return errors.Join(errs...)
	}

	var results []*result
	for _, w := range ws {
		r, err := do(w, seed, seconds, &fullSizes)
		if err != nil {
			return err // a wrong run reports no number
		}
		results = append(results, r)
		printTable(r, decl)
	}
	if out != "" {
		report := struct {
			Host    hostInfo  `json:"host"`
			Results []*result `json:"results"`
		}{thisHost(), results}
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printLine(results, decl)
}

// printTable prints one run's metrics by name, with units.
func printTable(r *result, decl []metric) {
	h := thisHost()
	fmt.Printf("# %s seed %d traced %v: %d passes in %.1f s, %d attempted, %d failed (gomaxprocs %d, num_cpu %d, %s, commit %s)\n",
		r.Workload, r.Seed, r.Traced, r.Passes, r.Seconds, r.Attempted, r.Failed,
		h.GoMaxProcs, h.NumCPU, h.GoVersion, h.Commit)
	for _, m := range decl {
		fmt.Printf("%-36s %16.6g %-7s %s\n", m.name, r.Metrics[m.name], m.unit, m.kind)
	}
}

// printLine prints the machine-readable last line: one JSON object with the
// keys correct, attempted, failed and metrics. With several workloads the
// metric names carry the workload as a prefix.
func printLine(results []*result, decl []metric) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Metrics: map[string]mv{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range decl {
			key := m.name
			if len(results) > 1 {
				key = r.Workload + "." + m.name
			}
			line.Metrics[key] = mv{r.Metrics[m.name], m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// repeatRun is the determinism and noise guard: it runs w n times on one
// seed and prints each metric's min, median, max and spread against its
// bound. It fails if a simulated value or count differs between repeats or a
// metric with a bound spreads wider than it.
func repeatRun(w *workload, seed int64, seconds float64, n int, decl []metric,
	do func(*workload, int64, float64, *sizes) (*result, error)) error {
	per := map[string][]float64{}
	for i := 0; i < n; i++ {
		r, err := do(w, seed, seconds, &fullSizes)
		if err != nil {
			return err
		}
		for k, v := range r.Metrics {
			per[k] = append(per[k], v)
		}
	}
	fmt.Printf("# %s seed %d: %d repeats\n", w.name, seed, n)
	fmt.Printf("%-36s %14s %14s %14s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
	var bad []string
	for _, m := range decl {
		xs := append([]float64(nil), per[m.name]...)
		sort.Float64s(xs)
		sp := spread(xs)
		verdict := ""
		switch {
		case (m.kind == simulated || m.kind == exact) && xs[0] != xs[len(xs)-1]:
			verdict = "DIFFERS"
		case m.bound > 0 && sp > m.bound:
			verdict = "NOISY"
		}
		if verdict != "" {
			bad = append(bad, m.name)
		}
		bound := "-"
		if m.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.bound)
		}
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %7.2f%% %6s %s\n",
			m.name, xs[0], median(xs), xs[len(xs)-1], 100*sp, bound, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %s outside their bounds", w.name, strings.Join(bad, ", "))
	}
	return nil
}
