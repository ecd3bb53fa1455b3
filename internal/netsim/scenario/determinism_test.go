package scenario

import (
	"testing"
	"time"

	"vgprs/internal/h323"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// checkReplay runs one (config, seed) twice, each run streaming its trace
// into a digest of its own, and checks the replay: the two digests, sealed
// with their runs' delivery counts and final clocks, must agree, and each
// equal the committed one. The digests were recorded when the engine still
// had a sharded mode, where each was identical at shards 1, 2 and 4.
func checkReplay[R any](t *testing.T, label, digest string, run func(*trace.Digest) (R, *Fingerprint, error)) (base, got R) {
	t.Helper()
	var runs [2]R
	var sums [2]string
	for i := range runs {
		d := trace.NewDigest()
		r, f, err := run(d)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], sums[i] = r, d.Seal(f.Delivered, f.Now)
		if sums[i] != digest {
			t.Errorf("%s run %d: digest %s, want %s (%d lines, %d delivered, clock %v)",
				label, i+1, sums[i], digest, d.Len(), f.Delivered, f.Now)
		}
	}
	if sums[1] != sums[0] {
		t.Errorf("%s replay: digest %s, want %s", label, sums[1], sums[0])
	}
	return runs[0], runs[1]
}

func TestMobilityDeterministic(t *testing.T) {
	digests := map[MobilityPolicy]string{
		PolicyDistance:  "f3c37f011228cbd5263a81abe35094975684b4e6f2b9a61b95acb03cbe8d9260",
		PolicyThreshold: "0525938131230147113718ae2d1ba5e583ca3d1a1d0592150a42965fdf943cb6",
	}
	for _, policy := range []MobilityPolicy{PolicyDistance, PolicyThreshold} {
		t.Run(policy.String(), func(t *testing.T) {
			base, res := checkReplay(t, "mobility", digests[policy], func(d *trace.Digest) (MobilityResult, *Fingerprint, error) {
				r, err := RunMobility(MobilityConfig{
					Seed: 7, NumMS: 4,
					Duration: 3 * time.Minute, Policy: policy,
					StormEvery: 90 * time.Second, Tracer: d,
				})
				return r, r.Fingerprint, err
			})
			if base.Moves == 0 || base.PolicyUpdates == 0 {
				t.Fatalf("inert run: %+v", base)
			}
			if base.HandoffAttempts == 0 || base.Handovers == 0 {
				t.Fatalf("no handoffs exercised: %+v", base)
			}
			if base.Moves != res.Moves || base.PolicyUpdates != res.PolicyUpdates ||
				base.Relocations != res.Relocations || base.Handovers != res.Handovers {
				t.Errorf("metrics diverge: base %+v, got %+v", base, res)
			}
		})
	}
}

func TestFlashCrowdDeterministic(t *testing.T) {
	base, res := checkReplay(t, "flash-crowd", "d1b811fbd6168bef0b262a7cd0bf3deb99a9b0908a754e25e767cf3d21eb1082",
		func(d *trace.Digest) (FlashCrowdResult, *Fingerprint, error) {
			r, err := RunFlashCrowd(FlashCrowdConfig{Seed: 11, NumMS: 8, Tracer: d})
			return r, r.Fingerprint, err
		})
	if base.Recovered != 8 || base.Exhausted != 0 {
		t.Fatalf("recovery incomplete: %+v", base)
	}
	if base.RecoveryTime <= 0 {
		t.Fatal("zero recovery time")
	}
	if base.RecoveryTime != res.RecoveryTime || base.Retransmits != res.Retransmits {
		t.Errorf("metrics diverge: base %+v, got %+v", base, res)
	}
}

// keepAlives is the day's tracer: it feeds the digest and checks the H.323
// keep-alives as they are noted. They are sent (counted in sent), and the
// gatekeeper never finds a refreshed registration lapsed.
type keepAlives struct {
	*trace.Digest
	t    *testing.T
	sent *int
}

func (k keepAlives) Trace(at time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	k.Digest.Trace(at, from, to, iface, msg)
	switch m := msg.(type) {
	case h323.RRQ:
		if m.KeepAlive {
			*k.sent++
		}
	case h323.RRJ:
		if m.Reason == h323.RejectFullRegistrationRequired {
			k.t.Errorf("%v %s -> %s: keep-alive found its registration lapsed", at, from, to)
		}
	}
}

func TestDayDeterministic(t *testing.T) {
	sent := 0
	base, res := checkReplay(t, "day", "c1db4797066ac9a53121b871d3e5524cc6253e7fe8ecaa206172c2c61eca795a",
		func(d *trace.Digest) (DayResult, *Fingerprint, error) {
			r, err := RunDay(DayConfig{
				Seed: 3, NumMS: 4, DataMS: 1,
				Duration: 10 * time.Minute, HeapWindow: 5 * time.Minute, Tracer: keepAlives{d, t, &sent},
			})
			return r, r.Fingerprint, err
		})
	if base.Calls == 0 || base.DataEchoes == 0 {
		t.Fatalf("inert run: %+v", base)
	}
	if base.MSCalls == 0 || base.BreakoutCalls == 0 || base.RoamerCalls == 0 || base.FallbackCalls == 0 {
		t.Fatalf("a traffic class never connected: %+v", base)
	}
	if base.Relocations == 0 || base.PowerCycles == 0 {
		t.Fatalf("churn classes inert: %+v", base)
	}
	if sent == 0 {
		t.Error("no keep-alive RRQ in the days' traces")
	}
	if base.Calls != res.Calls || base.DataEchoes != res.DataEchoes ||
		base.RoamerCalls != res.RoamerCalls || base.FallbackCalls != res.FallbackCalls {
		t.Errorf("metrics diverge: base %+v, got %+v", base, res)
	}
}
