package scenario

import (
	"testing"
	"time"

	"vgprs/internal/netsim"
	"vgprs/internal/trace"
)

// TestMediaDeterministic locks the talk path itself — every 20 ms frame
// through the hairpin, including the reusable-message fast path and the
// chaos loss/jitter draws — to an identical trace digest and bit-identical
// per-call MOS on replay, and the digest to its committed one.
func TestMediaDeterministic(t *testing.T) {
	base, res := checkReplay(t, "media", "9509ee25e209e5f9003f22cc7ef783637902893b4a470fe8348bfb6b9448dde0",
		func(d *trace.Digest) (MediaResult, *Fingerprint, error) {
			r, err := RunMedia(MediaConfig{
				Seed: 5, Calls: 3, Waves: 2,
				TalkTime: 5 * time.Second, LossRate: 0.02,
				Jitter: 2 * time.Millisecond, Tracer: d,
			})
			return r, r.Fingerprint, err
		})
	if base.Frames == 0 || base.FramesExpected == 0 {
		t.Fatalf("inert run: %+v", base)
	}
	if base.RTPLost == 0 {
		t.Fatalf("loss matrix never dropped a frame: %+v", base)
	}
	if len(base.PerCallMOS) != 6 {
		t.Fatalf("scored %d calls, want 6", len(base.PerCallMOS))
	}
	if base.Frames != res.Frames || base.RTPLost != res.RTPLost ||
		base.RTPReordered != res.RTPReordered {
		t.Errorf("frame counters diverge: base %+v, got %+v", base, res)
	}
	for i, mos := range res.PerCallMOS {
		if mos != base.PerCallMOS[i] {
			t.Errorf("call %d MOS %v, want exactly %v", i, mos, base.PerCallMOS[i])
		}
	}
}

// TestMediaLosslessScoresTollQuality pins the clean-path bound the bench
// artifact relies on: with no faults, every call scores >= 4.0 and no
// frame goes missing.
func TestMediaLosslessScoresTollQuality(t *testing.T) {
	res, err := RunMedia(MediaConfig{Seed: 2, Calls: 4, TalkTime: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != res.FramesExpected || res.RTPLost != 0 {
		t.Fatalf("clean path lost frames: %+v", res)
	}
	for i, mos := range res.PerCallMOS {
		if mos < 4.0 {
			t.Errorf("call %d: lossless MOS %.2f < 4.0", i, mos)
		}
	}
}

// TestMediaChaosOutageDegradesAndRecovers is the media chaos regression:
// a mid-call Gn outage during wave 0 must crater that wave's scores and
// only that wave's — the same pairs score toll quality again in wave 1 —
// and the clear-down audit must find no residual frame or slab state.
func TestMediaChaosOutageDegradesAndRecovers(t *testing.T) {
	res, err := RunMedia(MediaConfig{
		Seed: 9, Calls: 3, Waves: 2, TalkTime: 6 * time.Second,
		Plan: netsim.FaultPlan{{
			A: "SGSN-1", B: "GGSN-1", Down: true,
			From: 2 * time.Second, Until: 4 * time.Second,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWaveMOS) != 2 {
		t.Fatalf("want 2 wave summaries, got %+v", res.PerWaveMOS)
	}
	hit, clean := res.PerWaveMOS[0], res.PerWaveMOS[1]
	if hit.Max >= clean.Min {
		t.Fatalf("outage wave best MOS %.2f not below clean wave worst %.2f",
			hit.Max, clean.Min)
	}
	if hit.Max >= 3.5 {
		t.Errorf("2s outage in a 6s talk window barely hurt: wave-0 MOS %+v", hit)
	}
	if clean.Min < 4.0 {
		t.Errorf("recovery wave below toll quality: %+v", clean)
	}
	if res.Residual != 0 {
		t.Errorf("residual state after outage run: %d", res.Residual)
	}
}
