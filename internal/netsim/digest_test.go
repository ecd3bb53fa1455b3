package netsim

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// digestCase is one pinned run: the run installs d on its engine right after
// the build and returns the engine, and d sealed with the engine's delivery
// count and final clock must equal digest.
type digestCase struct {
	name, digest string
	run          func(t *testing.T, d *trace.Digest) *sim.Env
}

// checkDigests runs each case as a subtest against its committed digest.
func checkDigests(t *testing.T, cases []digestCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := trace.NewDigest()
			env := tc.run(t, d)
			if d.Len() == 0 {
				t.Fatal("no deliveries traced")
			}
			if got := d.Seal(env.Delivered(), env.Now()); got != tc.digest {
				t.Errorf("digest %s, want %s (%d lines, %d delivered, clock %v)",
					got, tc.digest, d.Len(), env.Delivered(), env.Now())
			}
		})
	}
}

// TestTraceDigests pins the engine's event order end to end: each case's
// trace, delivery count and final clock hash to a digest recorded when the
// engine still had a sharded mode, where every case was byte-identical at
// shards 1, 2 and 4. A diverging random draw, a reordered same-instant tie
// or a shifted clock anywhere in the stack changes the digest.
// TestTraceDigestsUnderChaos does the same for runs under fault plans.
func TestTraceDigests(t *testing.T) {
	checkDigests(t, []digestCase{
		{"registration", "1f713101e26011d7771d8d53157395eb907010fce06b47e9d330f0ffcc110273",
			func(t *testing.T, d *trace.Digest) *sim.Env {
				n := BuildVGPRS(VGPRSOptions{Seed: 7, NumMS: 5, NumTerminals: 2})
				n.Env.SetTracer(d)
				if err := n.RegisterAll(); err != nil {
					t.Fatal(err)
				}
				if res := n.Residual(); res.Total() != 0 {
					t.Fatalf("residual after registration:\n%s", res.String())
				}
				return n.Env
			}},
		{"call", "aef7817cfb4de53c8292aec9ccda9707a8018653f9e9e77bf374bdd0179607ef",
			func(t *testing.T, d *trace.Digest) *sim.Env {
				n := BuildVGPRS(VGPRSOptions{Seed: 11, NumMS: 2, Talk: true})
				n.Env.SetTracer(d)
				if err := n.RegisterAll(); err != nil {
					t.Fatal(err)
				}
				caller, callee := n.MSs[0], n.MSs[1]
				if err := caller.Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
					t.Fatal(err)
				}
				n.Env.RunUntil(n.Env.Now() + 5*time.Second)
				if caller.State() != gsm.MSInCall || callee.State() != gsm.MSInCall {
					t.Fatalf("states %v/%v", caller.State(), callee.State())
				}
				n.Env.RunUntil(n.Env.Now() + time.Second) // speech both ways
				if err := caller.Hangup(n.Env); err != nil {
					t.Fatal(err)
				}
				n.Env.RunUntil(n.Env.Now() + 2*time.Second)
				return n.Env
			}},
		{"multi-region registration", "aad1bfe1c3661702a488114517cdba772daac8c3edb515c95a487bff99fc0bf7",
			func(t *testing.T, d *trace.Digest) *sim.Env {
				n := BuildMultiRegion(MultiRegionOptions{Seed: 3, Regions: 3, MSPerRegion: 4})
				n.Env.SetTracer(d)
				if err := n.RegisterAll(); err != nil {
					t.Fatal(err)
				}
				if res := n.Residual(); res.Total() != 0 {
					t.Fatalf("residual after registration:\n%s", res.String())
				}
				return n.Env
			}},
	})
}

// TestTraceDigestsUnderChaos pins the seed-42 chaos registration (one MS)
// and call (two) under loss, duplication and an outage window to digests
// recorded on the sharded engine, as TestTraceDigests does for clean runs.
//
// fault-toggle-tie engages an outage on D at exactly 134 ms, the instant
// the HLR's MAP_INSERT_SUBS_DATA reaches VLR-1. The toggle runs in VLR-1's
// scheduling context (FaultPlan.Apply), so the HLR's delivery sorts first
// and the VLR's acknowledgement leaves before the link goes down; a toggle
// keyed in the root context would sort first, drop the acknowledgement and
// change the digest.
func TestTraceDigestsUnderChaos(t *testing.T) {
	chaos := func(plan FaultPlan, call bool) func(t *testing.T, d *trace.Digest) *sim.Env {
		return func(t *testing.T, d *trace.Digest) *sim.Env {
			run, numMS := (*VGPRSNet).chaosRegistration, 1
			if call {
				run, numMS = (*VGPRSNet).chaosCall, 2
			}
			n, err := chaosNet(42, numMS, plan)
			if err != nil {
				t.Fatal(err)
			}
			n.Env.SetTracer(d)
			if _, err := run(n, 42); err != nil {
				t.Fatal(err)
			}
			return n.Env
		}
	}
	dup := FaultPlan{{A: "VLR-1", B: "HLR", Dup: 0.3}, {A: "SGSN-1", B: "GGSN-1", Dup: 0.3}}
	outage := FaultPlan{{A: "VMSC-1", B: "VLR-1", Down: true, From: 100 * time.Millisecond, Until: 2 * time.Second}}
	checkDigests(t, []digestCase{
		{"uniform-loss/registration", "f5658eb4fcc0b060c65b741496fe336ddcd73a33b80a47129d14158ca4c8de18",
			chaos(UniformLossPlan(0.10), false)},
		{"uniform-loss/call", "e45ac867c13df0b23efb5dea2c87bed356bf89efda2d493dd7c57bda950bca3b",
			chaos(UniformLossPlan(0.10), true)},
		{"dup/registration", "b279d0284c69e866bd8e1f27cd105e2bbd4a3c25fc37527a893b97b0175709fc",
			chaos(dup, false)},
		{"dup/call", "a56ebc9c4fedc98863de8c7f0a1f4604ba41acbc13964ccd459a6165f527aa47",
			chaos(dup, true)},
		{"outage-window/registration", "c064e8ca7093f064c214830ecc6841bc4acc855e6ab5379d5a840e354a2137a8",
			chaos(outage, false)},
		{"outage-window/call", "169e2d8f1b8e098d2e4d78a2a8e3bcc915008c25ecab8ed36ed27ef5eadc837b",
			chaos(outage, true)},
		{"fault-toggle-tie", "89e1a042f2db28c2da3f5f7e552276e649b316ff25997277e64a47af5c05c95c",
			chaos(FaultPlan{{A: "VLR-1", B: "HLR", Down: true, From: 134 * time.Millisecond, Until: time.Second}}, false)},
	})
}
