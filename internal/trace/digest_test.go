package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/netsim"
	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

// tee hands every delivery to each of its tracers in turn.
type tee []sim.Tracer

func (t tee) Trace(at time.Duration, from, to sim.NodeID, iface string, msg sim.Message) {
	for _, tr := range t {
		tr.Trace(at, from, to, iface, msg)
	}
}

// TestDigestMatchesDump holds the Digest to the Recorder it replaces: on a
// registration and an MS-to-MS call under 10 % loss on every core link, whose
// trace has dropped messages and the H.323 arrows the endpoints note, Sum is
// the SHA-256 of the Recorder's Dump and Seal that of the Dump followed by the
// engine's delivery count and final clock, the form the committed netsim and
// scenario digests were recorded in.
func TestDigestMatchesDump(t *testing.T) {
	n := netsim.BuildVGPRS(netsim.VGPRSOptions{Seed: 42, NumMS: 2, NoTrace: true, Sig: netsim.ChaosSigProfile()})
	if err := netsim.UniformLossPlan(0.10).Apply(n.Env); err != nil {
		t.Fatal(err)
	}
	rec, d := trace.NewRecorder(), trace.NewDigest()
	n.Env.SetTracer(tee{rec, d})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	if err := n.MSs[0].Dial(n.Env, n.Subscribers[1].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 30*time.Second)
	if n.MSs[0].State() != gsm.MSInCall || n.MSs[1].State() != gsm.MSInCall {
		t.Fatalf("call states %v/%v", n.MSs[0].State(), n.MSs[1].State())
	}

	dump := rec.Dump()
	for _, want := range []string{"[drop:", "[RAS  ]", "[H.225]"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("the chaos call's trace has no %q line", want)
		}
	}
	if d.Len() != rec.Len() {
		t.Errorf("digest hashed %d lines, the recorder holds %d", d.Len(), rec.Len())
	}
	sum := sha256.Sum256([]byte(dump))
	if got, want := d.Sum(), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("Sum %s, want sha256(Dump()) %s", got, want)
	}
	sealed := sha256.Sum256(fmt.Appendf(nil, "%s\ndelivered=%d now=%v\n", dump, n.Env.Delivered(), n.Env.Now()))
	if got, want := d.Seal(n.Env.Delivered(), n.Env.Now()), hex.EncodeToString(sealed[:]); got != want {
		t.Errorf("Seal %s, want %s", got, want)
	}
}

// TestDigestRetainsNothing checks that a Digest's memory does not grow with
// its trace: 100,000 deliveries leave the live heap, after a collection, less
// than 64 KiB larger. A digest that also stores what it is shown (one tee'd
// with a Recorder) must fail the same check.
func TestDigestRetainsNothing(t *testing.T) {
	const deliveries, limit = 100_000, 64 << 10
	retained := func(tr sim.Tracer) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < deliveries; i++ {
			tr.Trace(time.Duration(i)*time.Millisecond, "MS-1", "BTS-1", "Um", step("Um_Channel_Request"))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	if grew := retained(trace.NewDigest()); grew >= limit {
		t.Errorf("a Digest retained %d B over %d deliveries, limit %d", grew, deliveries, limit)
	}
	if grew := retained(tee{trace.NewDigest(), trace.NewRecorder()}); grew < limit {
		t.Errorf("a digest that stores its entries retained only %d B: the check cannot see a stored trace", grew)
	}
}
