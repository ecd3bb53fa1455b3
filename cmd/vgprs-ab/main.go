// Command vgprs-ab compares the benchmark at two revisions in alternating
// pairs and says, per workload and end-to-end metric, whether the change is
// a gain, a regression or unresolved by the host's spread.
//
// Usage (from the repository root; `make bench-ab` wraps it):
//
//	vgprs-ab -base REV [-pairs N] [-workloads "a b"] [-seed S] [-seconds T] [-out FILE]
//
// BASE is checked out with `git worktree` into a temporary directory and
// the working tree is the head. Each side's benchmark (bench/) is built
// once; the run refuses to start when bench/ or BENCHMARK.json differ
// between the two, because then the sides would not measure the same thing.
// Pair i runs base first when i is even and head first when it is odd, so
// a host that drifts during a pair penalises both sides equally. The JSON
// written to FILE holds every run and, per metric, both sides' medians and
// quartiles, the deltas, wins k/N and the verdict (see judge). The command
// exits 1 after writing it when a metric is a regression whose median moved
// by more than the metric's BENCHMARK.json bound (see pastBound), so CI can
// gate on it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 10, "alternating base/head pairs per workload")
	workloads := flag.String("workloads", "", "workloads to run, space- or comma-separated (default: every BENCHMARK.json workload)")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	seconds := flag.Float64("seconds", 20, "host seconds per run")
	out := flag.String("out", "bench-ab.json", "file the comparison is written to")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "vgprs-ab: -base is required and -pairs must be positive")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *base, *pairs, strings.FieldsFunc(*workloads, isSep), *seed, *seconds, *out); err != nil {
		fmt.Fprintln(os.Stderr, "vgprs-ab:", err)
		os.Exit(1)
	}
}

func isSep(r rune) bool { return r == ',' || r == ' ' }

// contract is the part of BENCHMARK.json a comparison reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the largest move toward worse, as a share of the base
	// median, that the benchmark accepts.
	Bound float64 `json:"bound"`
}

func run(ctx context.Context, base string, pairs int, workloads []string, seed int64, seconds float64, out string) error {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	baseRev, err := git(ctx, root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	headRev, err := git(ctx, root, "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	dirty, err := git(ctx, root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return err
	}
	// The working tree is the head, so compare BASE with it, and count
	// untracked files under bench/ as a difference too.
	if _, err := git(ctx, root, "diff", "--quiet", baseRev, "--", "bench", "BENCHMARK.json"); err != nil {
		return fmt.Errorf("bench/ or BENCHMARK.json differ between %s and the working tree: the sides would not run the same benchmark", base)
	}
	if extra, err := git(ctx, root, "ls-files", "--others", "--exclude-standard", "--", "bench"); err != nil || extra != "" {
		return fmt.Errorf("untracked files under bench/: %q", extra)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(workloads) == 0 {
		for _, w := range c.Workloads {
			workloads = append(workloads, w.Name)
		}
	}

	tmp, err := os.MkdirTemp("", "vgprs-ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if _, err := git(ctx, root, "worktree", "add", "--detach", baseDir, baseRev); err != nil {
		return err
	}
	// A fresh context: the worktree must go even when the run was interrupted.
	defer git(context.Background(), root, "worktree", "remove", "--force", baseDir)

	bins := [2]string{filepath.Join(tmp, "vgprs-bench-base"), filepath.Join(tmp, "vgprs-bench-head")}
	for i, dir := range [2]string{baseDir, root} {
		if err := build(ctx, dir, bins[i]); err != nil {
			return err
		}
	}

	report := report{
		Base: baseRev, Head: headRev, HeadDirty: dirty != "", Pairs: pairs, Seed: seed, Seconds: seconds,
		Host: host{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()},
	}
	for _, w := range workloads {
		wr := workloadReport{Name: w}
		for i := 0; i < pairs; i++ {
			var p pair
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			p.BaseFirst = order[0] == 0
			for _, side := range order {
				r, err := runOnce(ctx, bins[side], w, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s pair %d (%s): %w", w, i, [2]string{"base", "head"}[side], err)
				}
				if side == 0 {
					p.Base = r
				} else {
					p.Head = r
				}
			}
			fmt.Fprintf(os.Stderr, "%s pair %d/%d: %s\n", w, i+1, pairs, p.brief())
			wr.Runs = append(wr.Runs, p)
		}
		wr.FailedShare.Base, wr.FailedShare.Head = failedShares(wr.Runs)
		wr.Metrics = summarize(c.EndToEnd, wr.Runs)
		report.Workloads = append(report.Workloads, wr)
		for _, m := range wr.Metrics {
			fmt.Println(m.line(w))
		}
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	var past []string
	for _, wr := range report.Workloads {
		for _, m := range wr.Metrics {
			if m.pastBound() {
				past = append(past, fmt.Sprintf("%s %s %+.1f %% (bound %g %%)", wr.Name, m.Name, m.DeltaPct, 100*m.Bound))
			}
		}
	}
	if len(past) > 0 {
		return fmt.Errorf("regression past its bound: %s", strings.Join(past, "; "))
	}
	return nil
}

// git runs a git command in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// build compiles the benchmark module of the checkout at dir into bin.
func build(ctx context.Context, dir, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	cmd.Dir = filepath.Join(dir, "bench")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %w", cmd.Dir, err)
	}
	return nil
}

// result is one run: the last line the benchmark prints.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func runOnce(ctx context.Context, bin, workload string, seed int64, seconds float64) (result, error) {
	cmd := exec.CommandContext(ctx, bin, "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return result{}, fmt.Errorf("reading the result line: %w", err)
	}
	if !line.Correct {
		return result{}, errors.New("the run reports an incorrect result")
	}
	r := result{Correct: true, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
	for name, m := range line.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, nil
}

type report struct {
	Base string `json:"base"`
	Head string `json:"head"`
	// HeadDirty is set when the working tree, which is what ran as head,
	// had changes HEAD does not hold.
	HeadDirty bool             `json:"head_dirty"`
	Pairs     int              `json:"pairs"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

type workloadReport struct {
	Name string `json:"name"`
	// FailedShare is each side's failed operations over attempted ones,
	// summed over its runs.
	FailedShare struct {
		Base float64 `json:"base"`
		Head float64 `json:"head"`
	} `json:"failed_share"`
	Metrics []metricReport `json:"metrics"`
	Runs    []pair         `json:"runs"`
}

type pair struct {
	BaseFirst bool   `json:"base_first"`
	Base      result `json:"base"`
	Head      result `json:"head"`
}

func failedShares(runs []pair) (base, head float64) {
	var att, fail [2]int64
	for _, p := range runs {
		for i, r := range [2]result{p.Base, p.Head} {
			att[i] += r.Attempted
			fail[i] += r.Failed
		}
	}
	share := func(i int) float64 {
		if att[i] == 0 {
			return 0
		}
		return float64(fail[i]) / float64(att[i])
	}
	return share(0), share(1)
}

func (p pair) brief() string {
	return fmt.Sprintf("cpu_us_per_op base %.3f head %.3f, failed %d/%d",
		p.Base.Metrics["cpu_us_per_op"], p.Head.Metrics["cpu_us_per_op"], p.Base.Failed, p.Head.Failed)
}
