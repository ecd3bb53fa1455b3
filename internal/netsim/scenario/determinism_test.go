package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"vgprs/internal/h323"
)

// firstTraceDiff locates the first divergent trace line for a readable
// failure message.
func firstTraceDiff(a, b string) string {
	if a == b {
		return ""
	}
	la, lb := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			ctx := i - 80
			if ctx < 0 {
				ctx = 0
			}
			end := i + 120
			if end > len(a) {
				end = len(a)
			}
			endB := i + 120
			if endB > len(b) {
				endB = len(b)
			}
			return fmt.Sprintf("first divergence at byte %d (lines %d vs %d):\n  a: …%q\n  b: …%q",
				i, la, lb, a[ctx:end], b[ctx:endB])
		}
		if a[i] == '\n' {
			la++
			lb++
		}
	}
	return fmt.Sprintf("traces are prefixes of each other (len %d vs %d)", len(a), len(b))
}

// checkReplay asserts that two runs of one (config, seed) produced identical
// outcomes, and that the outcome — trace, delivery count and final clock —
// hashes to the committed digest. The digests were recorded when the engine
// still had a sharded mode, where each was identical at shards 1, 2 and 4.
func checkReplay(t *testing.T, label, digest string, base, got *Fingerprint) {
	t.Helper()
	if base.Delivered != got.Delivered {
		t.Errorf("%s replay: delivered %d, want %d", label, got.Delivered, base.Delivered)
	}
	if base.Now != got.Now {
		t.Errorf("%s replay: final time %v, want %v", label, got.Now, base.Now)
	}
	if base.Entries != got.Entries {
		t.Errorf("%s replay: trace entries %d, want %d", label, got.Entries, base.Entries)
	}
	if base.Trace != got.Trace {
		t.Errorf("%s replay: trace diverges: %s", label, firstTraceDiff(base.Trace, got.Trace))
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\ndelivered=%d now=%v\n", base.Trace, base.Delivered, base.Now))
	if d := hex.EncodeToString(sum[:]); d != digest {
		t.Errorf("%s: digest %s, want %s (%d entries, %d delivered, clock %v)",
			label, d, digest, base.Entries, base.Delivered, base.Now)
	}
}

func TestMobilityDeterministic(t *testing.T) {
	digests := map[MobilityPolicy]string{
		PolicyDistance:  "f3c37f011228cbd5263a81abe35094975684b4e6f2b9a61b95acb03cbe8d9260",
		PolicyThreshold: "0525938131230147113718ae2d1ba5e583ca3d1a1d0592150a42965fdf943cb6",
	}
	for _, policy := range []MobilityPolicy{PolicyDistance, PolicyThreshold} {
		t.Run(policy.String(), func(t *testing.T) {
			var runs [2]MobilityResult
			for i := range runs {
				res, err := RunMobility(MobilityConfig{
					Seed: 7, NumMS: 4,
					Duration: 3 * time.Minute, Policy: policy,
					StormEvery: 90 * time.Second, Trace: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
			}
			base, res := runs[0], runs[1]
			if base.Moves == 0 || base.PolicyUpdates == 0 {
				t.Fatalf("inert run: %+v", base)
			}
			if base.HandoffAttempts == 0 || base.Handovers == 0 {
				t.Fatalf("no handoffs exercised: %+v", base)
			}
			checkReplay(t, "mobility", digests[policy], base.Fingerprint, res.Fingerprint)
			if base.Moves != res.Moves || base.PolicyUpdates != res.PolicyUpdates ||
				base.Relocations != res.Relocations || base.Handovers != res.Handovers {
				t.Errorf("metrics diverge: base %+v, got %+v", base, res)
			}
		})
	}
}

func TestFlashCrowdDeterministic(t *testing.T) {
	var runs [2]FlashCrowdResult
	for i := range runs {
		res, err := RunFlashCrowd(FlashCrowdConfig{Seed: 11, NumMS: 8, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	base, res := runs[0], runs[1]
	if base.Recovered != 8 || base.Exhausted != 0 {
		t.Fatalf("recovery incomplete: %+v", base)
	}
	if base.RecoveryTime <= 0 {
		t.Fatal("zero recovery time")
	}
	checkReplay(t, "flash-crowd", "d1b811fbd6168bef0b262a7cd0bf3deb99a9b0908a754e25e767cf3d21eb1082",
		base.Fingerprint, res.Fingerprint)
	if base.RecoveryTime != res.RecoveryTime || base.Retransmits != res.Retransmits {
		t.Errorf("metrics diverge: base %+v, got %+v", base, res)
	}
}

func TestDayDeterministic(t *testing.T) {
	var runs [2]DayResult
	for i := range runs {
		res, err := RunDay(DayConfig{
			Seed: 3, NumMS: 4, DataMS: 1,
			Duration: 10 * time.Minute, HeapWindow: 5 * time.Minute, Trace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	base, res := runs[0], runs[1]
	if base.Calls == 0 || base.DataEchoes == 0 {
		t.Fatalf("inert run: %+v", base)
	}
	if base.MSCalls == 0 || base.BreakoutCalls == 0 || base.RoamerCalls == 0 || base.FallbackCalls == 0 {
		t.Fatalf("a traffic class never connected: %+v", base)
	}
	if base.Relocations == 0 || base.PowerCycles == 0 {
		t.Fatalf("churn classes inert: %+v", base)
	}
	// The keep-alives hold every registration: they are sent, and the
	// gatekeeper never finds a refreshed row lapsed.
	keepAlives := 0
	for _, e := range base.Fingerprint.Rec.Entries() {
		switch m := e.Msg.(type) {
		case h323.RRQ:
			if m.KeepAlive {
				keepAlives++
			}
		case h323.RRJ:
			if m.Reason == h323.RejectFullRegistrationRequired {
				t.Errorf("%v %s -> %s: keep-alive found its registration lapsed", e.At, e.From, e.To)
			}
		}
	}
	if keepAlives == 0 {
		t.Error("no keep-alive RRQ in the day's trace")
	}
	checkReplay(t, "day", "c1db4797066ac9a53121b871d3e5524cc6253e7fe8ecaa206172c2c61eca795a",
		base.Fingerprint, res.Fingerprint)
	if base.Calls != res.Calls || base.DataEchoes != res.DataEchoes ||
		base.RoamerCalls != res.RoamerCalls || base.FallbackCalls != res.FallbackCalls {
		t.Errorf("metrics diverge: base %+v, got %+v", base, res)
	}
}
