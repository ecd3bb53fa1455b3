package netsim

import (
	"fmt"
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/trace"
)

// TestCallConvergesAcrossSeeds is a robustness sweep: for many seeds the
// full register + MO call + MT call + clear cycle must converge with no
// leaked state. (Seeds drive RNG-dependent behaviour: auth challenges,
// backoff, jitter when configured.)
func TestCallConvergesAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := BuildVGPRS(VGPRSOptions{Seed: seed, NumMS: 2, Talk: true})
			if err := n.RegisterAll(); err != nil {
				t.Fatal(err)
			}
			ms := n.MSs[0]
			// MO leg.
			if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 5*time.Second)
			if ms.State() != gsm.MSInCall {
				t.Fatalf("MO call state = %v", ms.State())
			}
			if err := ms.Hangup(n.Env); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 3*time.Second)
			// MT leg to the other MS.
			if _, err := n.Terminals[0].Call(n.Env, n.Subscribers[1].MSISDN); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 5*time.Second)
			if n.MSs[1].State() != gsm.MSInCall {
				t.Fatalf("MT call state = %v", n.MSs[1].State())
			}
			refs := n.Terminals[0].CallRefs()
			if len(refs) != 1 {
				t.Fatalf("refs = %v", refs)
			}
			if err := n.Terminals[0].Hangup(n.Env, refs[0]); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 3*time.Second)

			// Invariants: no leaked calls, channels, or voice contexts.
			if n.VMSC.ActiveCalls() != 0 {
				t.Errorf("leaked VMSC calls: %d", n.VMSC.ActiveCalls())
			}
			if n.BSC.ChannelsInUse() != 0 {
				t.Errorf("leaked radio channels: %d", n.BSC.ChannelsInUse())
			}
			if got := n.SGSN.ActiveContexts(); got != 2 {
				t.Errorf("contexts = %d, want 2 signalling", got)
			}
		})
	}
}

// TestDeterminismAcrossRuns re-runs an identical scenario and requires
// identical trace digests — the property every latency table in
// EXPERIMENTS.md relies on.
func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() string {
		n := BuildVGPRS(VGPRSOptions{Seed: 77, Talk: true})
		d := trace.NewDigest()
		n.Env.SetTracer(d)
		if err := n.RegisterAll(); err != nil {
			t.Fatal(err)
		}
		if err := n.MSs[0].Dial(n.Env, TerminalAlias(0)); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		if err := n.MSs[0].Hangup(n.Env); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 3*time.Second)
		return d.Seal(n.Env.Delivered(), n.Env.Now())
	}
	if run() != run() {
		t.Fatal("identical seeds produced different traces")
	}
}

// TestCallGlare drives the MS and the terminal to call each other at the
// same instant; exactly the race the single-call-per-MS policy must settle
// without leaking state.
func TestCallGlare(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 9, Talk: false})
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	ms := n.MSs[0]
	term := n.Terminals[0]
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := term.Call(n.Env, n.Subscribers[0].MSISDN); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)

	// Outcomes may differ (one side wins, or both clear), but no state
	// may leak and the network must still be usable afterwards.
	for _, ref := range term.CallRefs() {
		_ = term.Hangup(n.Env, ref)
	}
	if ms.State() == gsm.MSInCall {
		_ = ms.Hangup(n.Env)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	if n.VMSC.ActiveCalls() != 0 {
		t.Fatalf("leaked calls after glare: %d", n.VMSC.ActiveCalls())
	}
	if ms.State() != gsm.MSIdle {
		t.Fatalf("MS state after glare cleanup = %v", ms.State())
	}
	// A fresh call still works.
	if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 5*time.Second)
	if ms.State() != gsm.MSInCall {
		t.Fatalf("post-glare call failed: %v", ms.State())
	}
}

// TestMobilityConvergesAcrossSeeds sweeps the full mobility story — call,
// handoff out, subsequent handback, hangup, then an inter-VMSC relocation —
// across seeds, requiring clean convergence every time.
func TestMobilityConvergesAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := BuildHandoff(VGPRSOptions{Seed: seed, Talk: true})
			if err := n.RegisterAll(); err != nil {
				t.Fatal(err)
			}
			ms := n.MSs[0]
			if err := ms.Dial(n.Env, TerminalAlias(0)); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 3*time.Second)
			if !n.RunHandoff(ms, 10*time.Second) {
				t.Fatal("handoff failed")
			}
			ms.ReportNeighbor(n.Env, n.HomeCell)
			n.Env.RunUntil(n.Env.Now() + 2*time.Second)
			if n.VMSC.Stats().Handovers != 2 || n.ETrunks.InUse() != 0 {
				t.Fatalf("handback incomplete: handovers=%d trunks=%d",
					n.VMSC.Stats().Handovers, n.ETrunks.InUse())
			}
			if err := ms.Hangup(n.Env); err != nil {
				t.Fatal(err)
			}
			n.Env.RunUntil(n.Env.Now() + 2*time.Second)
			if n.VMSC.ActiveCalls() != 0 || n.Terminals[0].ActiveCalls() != 0 {
				t.Fatal("call state leaked")
			}

			m := BuildTwoVMSC(VGPRSOptions{Seed: seed})
			if err := m.RegisterAll(); err != nil {
				t.Fatal(err)
			}
			if err := m.MSs[0].MoveTo(m.Env, "BTS-2", m.Area2LAI); err != nil {
				t.Fatal(err)
			}
			m.Env.RunUntil(m.Env.Now() + 20*time.Second)
			if _, reg, _ := m.VMSC2.Entry(m.Subscribers[0].IMSI); !reg {
				t.Fatal("relocation failed")
			}
			if m.SGSN.ActiveContexts() != 0 {
				t.Fatalf("old SGSN holds %d contexts", m.SGSN.ActiveContexts())
			}
		})
	}
}
