package h323

import (
	"reflect"
	"testing"
	"time"

	"vgprs/internal/ipnet"
	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/slab"
	"vgprs/internal/txn"
)

type testCall struct{ leg Leg }

// testHost records what its endpoint sends and which calls it released; gone
// stands for an owner whose row was purged.
type testHost struct {
	ep      Endpoint
	sent    []sim.Message
	expired []*testCall
	gone    bool
}

func (h *testHost) Endpoint(slab.Handle) (Endpoint, bool) { return h.ep, !h.gone }

func (h *testHost) CallLeg(c *testCall) (Endpoint, *Leg, bool) { return h.ep, &c.leg, !h.gone }

func (h *testHost) Released(_ *sim.Env, c *testCall) { h.expired = append(h.expired, c) }

func newTestTransactions(p txn.Policy) (*sim.Env, *testHost, *Transactions[*testHost, *testCall]) {
	h := &testHost{}
	h.ep = Endpoint{Node: "EP", Addr: ipnet.MustAddr("10.0.0.1"), Send: func(_ *sim.Env, pkt ipnet.Packet) {
		in, _ := Classify(pkt)
		if in.RAS != nil {
			h.sent = append(h.sent, in.RAS)
		} else {
			h.sent = append(h.sent, in.Q931)
		}
	}}
	return sim.NewEnv(1), h, NewTransactions[*testHost, *testCall](h, ipnet.MustAddr("10.0.0.2"), p)
}

// answers records each completion's call and answer.
type answers struct {
	calls []*testCall
	msgs  []sim.Message
}

func (a *answers) done(_ *sim.Env, r RAS[*testHost, *testCall], answer sim.Message) {
	a.calls, a.msgs = append(a.calls, r.Call), append(a.msgs, answer)
}

// Every RAS answer type completes the request that carries its sequence
// number, whatever order the answers arrive in; a request with the same
// number completes nothing.
func TestTransactionsMatchEveryAnswer(t *testing.T) {
	env, _, tx := newTestTransactions(txn.Policy{})
	answerOf := []sim.Message{
		RCF{Seq: 1}, RRJ{Seq: 2}, UCF{Seq: 3}, ACF{Seq: 4},
		ARJ{Seq: 5}, DCF{Seq: 6}, LCF{Seq: 7}, LRJ{Seq: 8},
	}
	requests := []sim.Message{
		RRQ{Seq: 1}, RRQ{Seq: 2}, URQ{Seq: 3}, ARQ{Seq: 4},
		ARQ{Seq: 5}, DRQ{Seq: 6}, LRQ{Seq: 7}, LRQ{Seq: 8},
	}
	var got answers
	calls := make([]*testCall, len(requests))
	for i, req := range requests {
		calls[i] = &testCall{}
		tx.SendRAS(env, 0, calls[i], req, got.done)
	}
	for _, req := range requests {
		tx.AnswerRAS(env, req)
	}
	if len(got.msgs) != 0 || tx.ras.InFlight() != len(requests) {
		t.Fatalf("requests fed back as answers completed %v", got.msgs)
	}
	for i := len(answerOf) - 1; i >= 0; i-- {
		tx.AnswerRAS(env, answerOf[i])
	}
	for i, j := 0, len(answerOf)-1; j >= 0; i, j = i+1, j-1 {
		if !reflect.DeepEqual(got.msgs[i], answerOf[j]) || got.calls[i] != calls[j] {
			t.Errorf("completion %d: %v for call %p, want %v for %p", i, got.msgs[i], got.calls[i], answerOf[j], calls[j])
		}
	}
	if tx.ras.InFlight() != 0 {
		t.Fatalf("%d requests still pending", tx.ras.InFlight())
	}
}

// An answer with an unknown sequence number is dropped, and so is one that
// arrives after its request expired: the completion runs once, with nil.
func TestTransactionsDropUnknownAndLateAnswers(t *testing.T) {
	env, h, tx := newTestTransactions(txn.Policy{RTO: time.Second, Retries: 2})
	var got answers
	tx.SendRAS(env, 0, nil, RRQ{Seq: 1}, got.done)
	tx.AnswerRAS(env, RCF{Seq: 2})
	if len(got.msgs) != 0 || tx.ras.InFlight() != 1 {
		t.Fatalf("unknown answer completed %v", got.msgs)
	}
	env.Run()
	tx.AnswerRAS(env, RCF{Seq: 1})
	if len(got.msgs) != 1 || got.msgs[0] != nil {
		t.Fatalf("completions %v, want one nil", got.msgs)
	}
	if retx := txn.Total(tx.TxnStats).Retransmits; len(h.sent) != 3 || retx != 2 {
		t.Fatalf("sent %d copies, %d retransmits; want 3, 2", len(h.sent), retx)
	}
}

// Sending a call's next Q.931 message replaces the cycle still running: only
// the new message is retransmitted, and stopping the call ends it.
func TestTransactionsRearmReplacesCycle(t *testing.T) {
	env, h, tx := newTestTransactions(txn.Policy{RTO: time.Second})
	call := &testCall{leg: Leg{Peer: ipnet.MustAddr("10.0.0.3")}}
	tx.sendQ931(env, call, q931.Setup{CallRef: 1})
	tx.sendQ931(env, call, q931.Connect{CallRef: 1})
	env.RunUntil(1500 * time.Millisecond)
	want := []sim.Message{q931.Setup{CallRef: 1}, q931.Connect{CallRef: 1}, q931.Connect{CallRef: 1}}
	if !reflect.DeepEqual(h.sent, want) {
		t.Fatalf("sent %v, want %v", h.sent, want)
	}
	var s txn.Stats
	tx.TxnStats(func(plane string, st txn.Stats) {
		if plane == "Q.931" {
			s = st
		}
	})
	if s.Begun != 2 || s.Resolved != 1 || s.InFlight != 1 {
		t.Fatalf("Q.931 table %+v, want 2 begun, 1 replaced, 1 in flight", s)
	}
	tx.Reset(call)
	env.Run()
	if len(h.sent) != 3 || len(h.expired) != 0 {
		t.Fatalf("stopped cycle went on: sent %v, expired %d", h.sent, len(h.expired))
	}
}

// A spent budget runs each expiry hook exactly once; the leg tells the far
// end with a ReleaseComplete. An owner that went fails its transactions at
// the first timeout instead of spending the budget.
func TestTransactionsExpireOnce(t *testing.T) {
	for _, gone := range []bool{false, true} {
		env, h, tx := newTestTransactions(txn.Policy{RTO: 100 * time.Millisecond, Retries: 2})
		call := &testCall{}
		var got answers
		tx.Setup(env, call, q931.Setup{CallRef: 1})
		tx.SendRAS(env, 0, call, ARQ{Seq: 1}, got.done)
		h.gone = gone
		env.Run()
		if len(h.expired) != 1 || h.expired[0] != call {
			t.Errorf("gone=%v: Q.931 expiry ran for %v, want once for the call", gone, h.expired)
		}
		if len(got.msgs) != 1 || got.msgs[0] != nil || got.calls[0] != call {
			t.Errorf("gone=%v: RAS completions %v, want one nil", gone, got.msgs)
		}
		wantSent, wantRetx := 7, uint64(4)
		if gone {
			wantSent, wantRetx = 2, 0
		}
		tot := txn.Total(tx.TxnStats)
		if len(h.sent) != wantSent || tot.Retransmits != wantRetx {
			t.Errorf("gone=%v: sent %d, %d retransmits; want %d, %d", gone, len(h.sent), tot.Retransmits, wantSent, wantRetx)
		}
		if tot.InFlight != 0 || tot.Imbalance != 0 {
			t.Errorf("gone=%v: %d in flight, imbalance %d", gone, tot.InFlight, tot.Imbalance)
		}
	}
}
