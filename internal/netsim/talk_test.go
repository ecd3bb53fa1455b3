package netsim

import (
	"reflect"
	"testing"
	"time"

	"vgprs/internal/gsm"
)

// TestTalkTracedMatchesUntraced builds the same talk world twice from one
// seed, once traced and once not, and requires every MS to hear the same
// speech: equal MediaReports (frames, sequence span, delay, jitter). The
// untraced world sends speech frames as reused records by pointer, the
// traced one as value copies a trace may keep, so this pins the two paths
// to one behaviour, lossless and under the media chaos plan's loss and
// jitter.
func TestTalkTracedMatchesUntraced(t *testing.T) {
	for _, c := range []struct {
		name string
		plan FaultPlan
	}{
		{"lossless", nil},
		{"media-chaos", MediaChaosPlan(0.05, MaxMediaJitter, 0, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			traced := talkReports(t, false, c.plan)
			untraced := talkReports(t, true, c.plan)
			lost := false
			for i := range traced {
				if traced[i] != untraced[i] {
					t.Errorf("MS %d: traced %+v, untraced %+v", i, traced[i], untraced[i])
				}
				if traced[i].Frames == 0 {
					t.Errorf("MS %d heard no speech", i)
				}
				lost = lost || traced[i].Frames < traced[i].Expected
			}
			if lost != (c.plan != nil) {
				t.Errorf("frames lost: %v, want %v", lost, c.plan != nil)
			}
		})
	}
}

// talkReports runs two MS-to-MS calls for 5 s of speech, with plan applied
// once both are up, and returns each MS's MediaReport.
func talkReports(t *testing.T, noTrace bool, plan FaultPlan) []gsm.MediaReport {
	t.Helper()
	n := BuildVGPRS(VGPRSOptions{Seed: 8, NumMS: 4, Talk: true, NoTrace: noTrace})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i += 2 {
		if err := n.MSs[i].Dial(n.Env, n.Subscribers[i+1].MSISDN); err != nil {
			t.Fatal(err)
		}
	}
	n.Env.RunUntil(n.Env.Now() + 2*time.Second)
	for _, ms := range n.MSs {
		if ms.State() != gsm.MSInCall {
			t.Fatalf("%s not in a call: %v", ms.ID(), ms.State())
		}
	}
	if err := plan.Apply(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	reports := make([]gsm.MediaReport, len(n.MSs))
	for i, ms := range n.MSs {
		reports[i] = ms.MediaReport()
	}
	return reports
}

// TestTraceHoldsNoReusedRecord runs a traced talking world and checks that
// the trace holds no record its sender rewrites. Every relay that reuses
// one record per frame interval (the MS's uplink frame, the VMSC's downlink
// frame and uplink Gb message, the SGSN's GTP and Gb messages, the GGSN's
// hairpin GTP message) sends it through sim.SendReused, which shows a
// tracer a value copy; a record sent by pointer would show as a pointer
// message, and a reused one as the same pointer in many entries.
func TestTraceHoldsNoReusedRecord(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 8, NumMS: 2, Talk: true})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 3*time.Second)
	for _, ms := range n.MSs {
		if ms.State() != gsm.MSInCall || ms.FramesReceived() == 0 {
			t.Fatalf("%s: state %v, %d frames heard; want a talking call", ms.ID(), ms.State(), ms.FramesReceived())
		}
	}
	entries := map[uintptr]int{} // traced pointer message -> entries holding it
	types := map[string]int{}
	shared := 0 // entries holding the most shared record
	for _, e := range n.Rec.Entries() {
		if v := reflect.ValueOf(e.Msg); v.Kind() == reflect.Pointer {
			entries[v.Pointer()]++
			types[v.Type().String()]++
			shared = max(shared, entries[v.Pointer()])
		}
	}
	if len(types) > 0 {
		t.Errorf("the trace holds pointer messages %v: %d records, the most shared by %d entries",
			types, len(entries), shared)
	}
}
