package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunAllExperiments smoke-tests the whole CLI: every experiment table
// must build and print without error. The scale sweep runs a small
// population; its 100k gate is experiments.TestFullStackBytesPerSubscriberBudget.
func TestRunAllExperiments(t *testing.T) {
	if code := run([]string{"-calls", "2", "-scale-subs", "2000"}); code != 0 {
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
