// Command vgprs-bench runs the complete experiment suite — every figure and
// §6 comparison of the paper — and prints the measured tables that
// EXPERIMENTS.md records.
//
// Usage:
//
//	vgprs-bench [-seed N] [-calls N] [-only F4,C1,...] [-json] [-out DIR]
//	vgprs-bench -only scale -scale-subs N -heapprofile FILE
//
// With -json, each experiment additionally writes its raw results to
// DIR/BENCH_<id>.json (machine-readable, stable field names), so the
// performance trajectory across revisions can be tracked without parsing
// the text tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vgprs/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vgprs-bench", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	calls := fs.Int("calls", 5, "calls per setup-latency series (C1)")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	jsonOut := fs.Bool("json", false, "also write per-experiment results to BENCH_<id>.json")
	outDir := fs.String("out", ".", "directory for -json output files")
	scaleSubs := fs.String("scale-subs", "100000",
		"comma-separated population sizes for the scale sweep")
	heapProfile := fs.String("heapprofile", "",
		"write a heap profile to this file when the scale sweep reaches residency (its last size wins)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var atResidency func() error
	if *heapProfile != "" {
		runtime.MemProfileRate = 512 // a 100-byte row must show; the default samples every 512 KB
		atResidency = func() error { return writeHeapProfile(*heapProfile) }
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	want := func(id string) bool { return len(wanted) == 0 || wanted[strings.ToUpper(id)] }

	type experiment struct {
		id string
		// run returns the rendered table plus the raw result value for
		// -json serialisation.
		run func() (fmt.Stringer, any, error)
	}
	suite := []experiment{
		{"F1", func() (fmt.Stringer, any, error) {
			r, err := experiments.RunF1Attach(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.F1Table(r), r, nil
		}},
		{"F4", func() (fmt.Stringer, any, error) {
			r, err := experiments.RunF4Registration(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.F4Table(r), r, nil
		}},
		{"C1", func() (fmt.Stringer, any, error) {
			r, err := experiments.RunC1SetupComparison(*seed, *calls)
			if err != nil {
				return nil, nil, err
			}
			return experiments.C1Table(r), r, nil
		}},
		{"C2", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunC2ContextResidency(*seed, []int{1, 10, 50, 100})
			if err != nil {
				return nil, nil, err
			}
			return experiments.C2Table(points), points, nil
		}},
		{"C3", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunC3VoiceQuality(*seed, 10*time.Second,
				[]time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond})
			if err != nil {
				return nil, nil, err
			}
			return experiments.C3Table(points), points, nil
		}},
		{"C5", func() (fmt.Stringer, any, error) {
			results, err := experiments.RunC5SignallingLoad(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.C5Table(results), results, nil
		}},
		{"F7F8", func() (fmt.Stringer, any, error) {
			entries, err := experiments.RunF7F8Tromboning(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.TromboneTable(entries), entries, nil
		}},
		{"F9", func() (fmt.Stringer, any, error) {
			r, err := experiments.RunF9Handoff(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.F9Table(r), r, nil
		}},
		{"A1", func() (fmt.Stringer, any, error) {
			results, err := experiments.RunA1RegistrationAblation(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.A1Table(results), results, nil
		}},
		{"A2", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunA2VocoderCost(*seed, 3*time.Second,
				[]time.Duration{500 * time.Microsecond, time.Millisecond,
					2 * time.Millisecond, 5 * time.Millisecond})
			if err != nil {
				return nil, nil, err
			}
			return experiments.A2Table(points), points, nil
		}},
		{"A3", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunA3RadioLatencySweep(*seed,
				[]time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
					20 * time.Millisecond, 40 * time.Millisecond})
			if err != nil {
				return nil, nil, err
			}
			return experiments.A3Table(points), points, nil
		}},
		{"R1", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunR1RegistrationStorm(*seed,
				[]struct{ MS, TCH int }{{10, 4}, {25, 4}, {50, 8}, {100, 16}})
			if err != nil {
				return nil, nil, err
			}
			return experiments.R1Table(points), points, nil
		}},
		{"loss", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunLossSweep(*seed,
				[]float64{0, 0.05, 0.10, 0.20}, 20)
			if err != nil {
				return nil, nil, err
			}
			return experiments.LossTable(points), points, nil
		}},
		{"scenarios", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunScenarioSweep(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.ScenarioTable(points), points, nil
		}},
		{"media", func() (fmt.Stringer, any, error) {
			points, err := experiments.RunMediaSweep(*seed)
			if err != nil {
				return nil, nil, err
			}
			return experiments.MediaTable(points), points, nil
		}},
		{"scale", func() (fmt.Stringer, any, error) {
			sizes, err := parseSizes(*scaleSubs)
			if err != nil {
				return nil, nil, err
			}
			points, err := experiments.RunScaleFullSweep(*seed, sizes, atResidency)
			if err != nil {
				return nil, nil, err
			}
			return text(experiments.ScaleFullTable(points).String() + "\n\n" +
				experiments.ScaleFootprintTable(points).String()), points, nil
		}},
	}

	failed := 0
	for _, e := range suite {
		if !want(e.id) && !(e.id == "F7F8" && (want("F7") || want("F8"))) {
			continue
		}
		table, data, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Println(table)
		if *jsonOut {
			if err := writeJSON(*outDir, e.id, *seed, data); err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.id, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeHeapProfile writes the in-use heap as of the last collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// text is a report that is already rendered.
type text string

func (t text) String() string { return string(t) }

// parseSizes parses a comma-separated population-size list.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad population-size entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// writeJSON writes one experiment's raw results to DIR/BENCH_<id>.json.
// Duration-typed fields serialise as integer nanoseconds of virtual time.
func writeJSON(dir, id string, seed int64, data any) error {
	payload := struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
		Data       any    `json:"data"`
	}{Experiment: id, Seed: seed, Data: data}
	buf, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal results: %w", err)
	}
	buf = append(buf, '\n')
	path := filepath.Join(dir, "BENCH_"+id+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
