package vgprs_test

import (
	"runtime"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/netsim"
)

// talkingPair builds a 2-MS talk-enabled network with one MS-to-MS call
// established and a second of steady-state frames already exchanged, so
// measurements start with every per-call buffer warm.
func talkingPair(tb testing.TB, seed int64) *netsim.VGPRSNet {
	tb.Helper()
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{
		Seed: seed, NumMS: 2, Talk: true, NoTrace: true,
	})
	if err := n.RegisterAll(); err != nil {
		tb.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		tb.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	for _, ms := range n.MSs {
		if ms.State() != gsm.MSInCall {
			tb.Fatalf("call not up: %v/%v", n.MSs[0].State(), n.MSs[1].State())
		}
	}
	n.Env.RunUntil(n.Env.Now() + time.Second)
	return n
}

// TestFrameForwardAllocBudget is the per-frame allocation budget for the
// steady-state talk path: zero. Every hop reuses a per-sender record sent by
// pointer — the MS's uplink frame, the VMSC's per-call downlink frame and
// RTP, LLC and Gb buffers, the SGSN's per-context GTP and Gb messages — so
// no frame is boxed into an interface and no buffer is allocated. The
// budget of 0.5 per frame leaves room for the engine's amortised queue
// growth while failing on any per-frame box, which costs at least one.
func TestFrameForwardAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs steady-state measurement")
	}
	n := talkingPair(t, 1)
	const window = 10 * time.Second

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rxBefore := n.MSs[0].FramesReceived() + n.MSs[1].FramesReceived()
	n.Env.RunUntil(n.Env.Now() + window)
	runtime.ReadMemStats(&after)

	frames := n.MSs[0].FramesReceived() + n.MSs[1].FramesReceived() - rxBefore
	if want := 2 * uint64(window/(20*time.Millisecond)) * 95 / 100; frames < want {
		t.Fatalf("talk path stalled: %d frames in %v, want >= %d", frames, window, want)
	}
	allocs := after.Mallocs - before.Mallocs
	perFrame := float64(allocs) / float64(frames)
	t.Logf("%d allocs over %d frames: %.3f allocs/frame", allocs, frames, perFrame)
	if perFrame > 0.5 {
		t.Fatalf("talk path allocated %.3f objects/frame, budget 0.5", perFrame)
	}
}

// BenchmarkTalkPathFrame measures the real CPU and allocation cost of one
// 20 ms frame interval on an established call: two end-to-end frames (one
// per direction) through the full Um -> VMSC -> GTP hairpin and back.
func BenchmarkTalkPathFrame(b *testing.B) {
	n := talkingPair(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Env.RunUntil(n.Env.Now() + 20*time.Millisecond)
	}
	b.StopTimer()
	frames := n.MSs[0].FramesReceived() + n.MSs[1].FramesReceived()
	b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
}
