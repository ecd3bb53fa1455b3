package netsim

import (
	"fmt"
	"testing"
	"time"

	"vgprs/internal/gsm"
)

// TestShardedMatchesSequential is the tentpole determinism invariant of the
// multi-core engine: the same seed must produce a byte-identical trace and
// identical metrics at any shard count, including 1, for both the
// registration and the call scenario. A single diverging random draw, tie
// order, or clock value anywhere in the stack shows up as a trace diff.
func TestShardedMatchesSequential(t *testing.T) {
	type outcome struct {
		trace     string
		delivered uint64
		now       time.Duration
		entries   int
	}

	scenarios := []struct {
		name string
		run  func(shards int) outcome
	}{
		{
			name: "registration",
			run: func(shards int) outcome {
				n := BuildVGPRS(VGPRSOptions{Seed: 7, NumMS: 5, NumTerminals: 2, Shards: shards})
				if err := n.RegisterAll(); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res := n.Residual(); res.Total() != 0 {
					t.Fatalf("shards=%d residual after registration:\n%s", shards, res.String())
				}
				return outcome{n.Rec.Dump(), n.Env.Delivered(), n.Env.Now(), n.Rec.Len()}
			},
		},
		{
			name: "call",
			run: func(shards int) outcome {
				n := BuildVGPRS(VGPRSOptions{Seed: 11, NumMS: 2, Talk: true, Shards: shards})
				if err := n.RegisterAll(); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				caller, callee := n.MSs[0], n.MSs[1]
				if err := caller.Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
					t.Fatalf("shards=%d dial: %v", shards, err)
				}
				n.Env.RunUntil(n.Env.Now() + 5*time.Second)
				if caller.State() != gsm.MSInCall || callee.State() != gsm.MSInCall {
					t.Fatalf("shards=%d states %v/%v", shards, caller.State(), callee.State())
				}
				n.Env.RunUntil(n.Env.Now() + time.Second) // speech both ways
				if err := caller.Hangup(n.Env); err != nil {
					t.Fatalf("shards=%d hangup: %v", shards, err)
				}
				n.Env.RunUntil(n.Env.Now() + 2*time.Second)
				return outcome{n.Rec.Dump(), n.Env.Delivered(), n.Env.Now(), n.Rec.Len()}
			},
		},
		{
			name: "multi-region registration",
			run: func(shards int) outcome {
				n := BuildMultiRegion(MultiRegionOptions{
					Seed: 3, Regions: 3, MSPerRegion: 4, Shards: shards,
				})
				if err := n.RegisterAll(); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res := n.Residual(); res.Total() != 0 {
					t.Fatalf("shards=%d residual after registration:\n%s", shards, res.String())
				}
				return outcome{n.Rec.Dump(), n.Env.Delivered(), n.Env.Now(), n.Rec.Len()}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.run(1)
			if ref.entries == 0 {
				t.Fatal("reference run recorded no trace entries")
			}
			for _, shards := range []int{2, 4} {
				got := sc.run(shards)
				if got.delivered != ref.delivered {
					t.Errorf("shards=%d delivered %d, sequential %d", shards, got.delivered, ref.delivered)
				}
				if got.now != ref.now {
					t.Errorf("shards=%d final clock %v, sequential %v", shards, got.now, ref.now)
				}
				if got.trace != ref.trace {
					t.Fatalf("shards=%d trace diverged from sequential (%d vs %d entries):\n%s",
						shards, got.entries, ref.entries, firstTraceDiff(ref.trace, got.trace))
				}
			}
		})
	}
}

// firstTraceDiff renders a window around the first differing line of two
// trace dumps, keeping failure output readable for multi-thousand-line
// traces.
func firstTraceDiff(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			out := fmt.Sprintf("first divergence at line %d:\n", i+1)
			for j := lo; j <= i; j++ {
				out += fmt.Sprintf("  seq: %s\n", la[j])
			}
			out += fmt.Sprintf("  shd: %s\n", lb[i])
			return out
		}
	}
	return fmt.Sprintf("traces are a prefix of each other (%d vs %d lines)", len(la), len(lb))
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestShardedRegistrationUnderLoad runs a larger sharded population end to
// end, guarding the parallel path against deadlocks and dropped events at a
// size where many synchronization windows elapse.
func TestShardedRegistrationUnderLoad(t *testing.T) {
	n := BuildMultiRegion(MultiRegionOptions{
		Seed: 9, Regions: 4, MSPerRegion: 25, Shards: 4, NoTrace: true,
	})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	seq := BuildMultiRegion(MultiRegionOptions{
		Seed: 9, Regions: 4, MSPerRegion: 25, Shards: 1, NoTrace: true,
	})
	if err := seq.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if n.Env.Delivered() != seq.Env.Delivered() {
		t.Fatalf("sharded delivered %d, sequential %d", n.Env.Delivered(), seq.Env.Delivered())
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("residual after registration:\n%s", res.String())
	}
}
