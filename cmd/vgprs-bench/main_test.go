package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedResultsReproduce regenerates the paper's figures and
// comparisons and the loss, scenario and media sweeps, and compares each file
// byte for byte with the BENCH_<id>.json at the repository root: every value
// in them is simulated, so any difference is a behaviour change that must be
// committed along with its explanation.
func TestCommittedResultsReproduce(t *testing.T) {
	ids := []string{"F1", "F4", "C1", "C2", "C3", "C5", "F7F8", "F9", "A1", "A2", "A3", "R1",
		"loss", "scenarios", "media"}
	dir := t.TempDir()
	if code := run([]string{"-only", strings.Join(ids, ","), "-json", "-out", dir}); code != 0 {
		t.Fatalf("run() = %d", code)
	}
	for _, id := range ids {
		name := "BENCH_" + id + ".json"
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed file (regenerate with: go run ./cmd/vgprs-bench -only %s -json)", name, id)
		}
	}
}

// TestRunAllExperiments smoke-tests the whole CLI: every experiment table
// must build and print without error. The scale sweep runs a small
// population; its 100k gate is experiments.TestFullStackBytesPerSubscriberBudget.
func TestRunAllExperiments(t *testing.T) {
	if code := run([]string{"-scale-subs", "2000"}); code != 0 {
		t.Fatalf("run() = %d", code)
	}
}

// TestRunOnlyFilter exercises the -only selector.
func TestRunOnlyFilter(t *testing.T) {
	if code := run([]string{"-only", "F4,A2"}); code != 0 {
		t.Fatalf("run() = %d", code)
	}
}

// TestRunJSONOutput exercises -json: each selected experiment must write a
// parseable BENCH_<id>.json with the experiment ID, seed, and a data body.
func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-only", "F4,C1,R1", "-json", "-out", dir}); code != 0 {
		t.Fatalf("run() = %d", code)
	}
	for _, id := range []string{"F4", "C1", "R1"} {
		path := filepath.Join(dir, "BENCH_"+id+".json")
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
		var payload struct {
			Experiment string          `json:"experiment"`
			Seed       int64           `json:"seed"`
			Data       json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(buf, &payload); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if payload.Experiment != id || payload.Seed != 1 {
			t.Fatalf("%s: payload = %+v", path, payload)
		}
		if len(payload.Data) == 0 || string(payload.Data) == "null" {
			t.Fatalf("%s: empty data body", path)
		}
	}
	// Unselected experiments must not leave files behind.
	if _, err := os.Stat(filepath.Join(dir, "BENCH_A2.json")); !os.IsNotExist(err) {
		t.Fatalf("unexpected BENCH_A2.json (err=%v)", err)
	}
}
