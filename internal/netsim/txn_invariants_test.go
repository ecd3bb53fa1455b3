package netsim

import (
	"fmt"
	"testing"
	"time"

	"vgprs/internal/sigmap"
	"vgprs/internal/txn"
)

// TestTransactionInvariantsUnderLoss runs the chaos registration and call
// scenarios under 10% uniform loss, lets every plane finish what it started,
// and audits each transaction table in the network: every transaction begun
// was ended by an answer or by its timer, none is left in flight, no record
// leaked, and the per-table retransmit counters add up to exactly what
// SignallingRetransmits reports.
func TestTransactionInvariantsUnderLoss(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	scenarios := []struct {
		name string
		run  func(seed int64, plan FaultPlan, shards int) (*VGPRSNet, ChaosResult, error)
	}{
		{"registration", runChaosRegistration},
		{"call", runChaosCall},
	}
	for _, sc := range scenarios {
		for _, shards := range []int{1, 2, 4} {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				name := fmt.Sprintf("%s/shards=%d/seed=%d", sc.name, shards, seed)
				// A procedure that fails cleanly under loss is a legal
				// outcome; its transactions must still all have ended.
				n, _, _ := sc.run(seed, UniformLossPlan(0.10), shards)
				if n == nil {
					t.Fatalf("%s: no network", name)
				}
				// Drain: the longest budget (H.323) exhausts ~28 s after a
				// first send.
				n.Env.RunUntil(n.Env.Now() + 2*chaosWindow)

				tables := 0
				var retransmits uint64
				for _, e := range n.elements {
					node, ok := e.node.(interface {
						TxnStats(report func(plane string, s txn.Stats))
					})
					if !ok {
						continue
					}
					node.TxnStats(func(plane string, s txn.Stats) {
						tables++
						retransmits += s.Retransmits
						if s.InFlight != 0 || s.Begun != s.Resolved+s.TimedOut {
							t.Errorf("%s: %s %s table %+v: want begun == resolved + timedOut, none in flight",
								name, e.name, plane, s)
						}
					})
				}
				if tables < 10 {
					t.Fatalf("%s: only %d transaction tables audited", name, tables)
				}
				if got := n.SignallingRetransmits(); got != retransmits {
					t.Errorf("%s: SignallingRetransmits = %d, tables sum to %d", name, got, retransmits)
				}
				for _, it := range n.Residual().Items {
					// Durable call state (the chaos call is left up) is not a
					// transaction leak; record imbalance and pending counts are.
					if it.Kind == "active calls" || it.Kind == "channels in use" {
						continue
					}
					t.Errorf("%s: residual %s: %d %s", name, it.Node, it.Count, it.Kind)
				}
			}
		}
	}
}

// TestVMSCRetransmitsSurvivePurge is the regression test for the
// non-monotonic VMSC.Retransmits: GMM/SM retransmissions used to be counted
// on the per-subscriber client, so purging the subscriber took them out of
// the total (and flashcrowd's before/after subtraction could wrap).
func TestVMSCRetransmitsSurvivePurge(t *testing.T) {
	n := BuildVGPRS(VGPRSOptions{Seed: 5})
	sub := n.Subscribers[0]

	// Lose the first AttachRequest on Gb so the client's RTO timer has to
	// retransmit it, then heal the link.
	gb := n.Env.LinkBetween("VMSC-1", "SGSN-1")
	gb.Down = true
	n.Env.After(500*time.Millisecond, func() { gb.Down = false })
	if err := n.RegisterAll(); err != nil {
		t.Fatal(err)
	}
	before := n.VMSC.Retransmits()
	if before == 0 {
		t.Fatal("no GMM/SM retransmission was forced")
	}

	if err := n.MSs[0].PowerOff(n.Env); err != nil {
		t.Fatal(err)
	}
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	n.Env.Send("HLR", "VLR-1", sigmap.CancelLocation{Invoke: 99, IMSI: sub.IMSI})
	n.Env.RunUntil(n.Env.Now() + 10*time.Second)
	if h := n.VMSC.EntryHandle(sub.IMSI); !h.IsZero() {
		t.Fatalf("subscriber not purged: handle %v", h)
	}

	if after := n.VMSC.Retransmits(); after < before {
		t.Fatalf("VMSC.Retransmits went from %d to %d when the subscriber was purged", before, after)
	}
	if res := n.Residual(); res.Total() != 0 {
		t.Fatalf("residual after purge:\n%s", res.String())
	}
}
