package ss7

import (
	"testing"
	"time"

	"vgprs/internal/sim"
)

type reqMsg struct{ id InvokeID }

func (reqMsg) Name() string { return "REQ" }

type respMsg struct{ id InvokeID }

func (respMsg) Name() string { return "RESP" }

// echoServer answers every reqMsg with a respMsg carrying the same invoke ID.
type echoServer struct {
	id   sim.NodeID
	seen int
}

func (s *echoServer) ID() sim.NodeID { return s.id }

func (s *echoServer) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	s.seen++
	env.Send(s.id, from, respMsg{id: msg.(reqMsg).id})
}

// retryClient resolves respMsg deliveries against its dialogue manager.
type retryClient struct {
	id sim.NodeID
	dm *DialogueManager
}

func (c *retryClient) ID() sim.NodeID { return c.id }

func (c *retryClient) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	c.dm.Resolve(msg.(respMsg).id, msg)
}

func retryPair(t *testing.T) (*sim.Env, *retryClient, *echoServer) {
	t.Helper()
	env := sim.NewEnv(1)
	c := &retryClient{id: "client", dm: NewDialogueManager("client")}
	s := &echoServer{id: "server"}
	env.AddNode(c)
	env.AddNode(s)
	env.Connect("client", "server", "map", time.Millisecond)
	return env, c, s
}

// assertNoRecordLeaked checks a drained manager's record accounting: records
// were allocated, and every one of them is back on the free list.
func assertNoRecordLeaked(t *testing.T, dm *DialogueManager) {
	t.Helper()
	if o := dm.Occupancy(); o.Cap == 0 || o.Free != o.Cap || o.Imbalance() != 0 {
		t.Fatalf("occupancy %+v, want every record free (record leaked)", o)
	}
}

// TestTransmitRetransmitsAfterDrop drops the first request PDU and checks
// one retransmission recovers the dialogue within the budget, with the
// record returned to the slab free list after the in-flight timer fires.
func TestTransmitRetransmitsAfterDrop(t *testing.T) {
	env, c, s := retryPair(t)
	link := env.LinkBetween("client", "server")
	link.Down = true

	var got sim.Message
	var ok, fired bool
	id := c.dm.InvokeRetry(func(m sim.Message, k bool) { got, ok, fired = m, k, true })
	c.dm.Transmit(env, id, "server", reqMsg{id: id}, 100*time.Millisecond, 3)

	// Heal the link before the first RTO expires: the retransmission at
	// t=100ms must get through.
	env.After(50*time.Millisecond, func() { link.Down = false })
	env.Run()

	if !fired || !ok || got == nil {
		t.Fatalf("fired=%v ok=%v got=%v, want successful resolve", fired, ok, got)
	}
	if s.seen != 1 {
		t.Fatalf("server saw %d requests, want 1 (first copy was dropped)", s.seen)
	}
	if c.dm.Retransmits() != 1 {
		t.Fatalf("Retransmits = %d, want 1", c.dm.Retransmits())
	}
	if c.dm.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after resolve", c.dm.Outstanding())
	}
	// Record hygiene: one record was drawn and must be back on the free
	// list now that its timer has fired.
	assertNoRecordLeaked(t, c.dm)
}

// TestTransmitBudgetExhaustedFailsCleanly keeps the link down for the whole
// run: the invoke must fail with ok=false after exactly the budgeted number
// of retransmissions, at the backoff-predicted time, releasing its record.
func TestTransmitBudgetExhaustedFailsCleanly(t *testing.T) {
	env, c, _ := retryPair(t)
	env.LinkBetween("client", "server").Down = true

	const rto = 100 * time.Millisecond
	const retries = 3
	var ok, fired bool
	var failedAt time.Duration
	id := c.dm.InvokeRetry(func(m sim.Message, k bool) { ok, fired = k, true; failedAt = env.Now() })
	c.dm.Transmit(env, id, "server", reqMsg{id: id}, rto, retries)
	env.Run()

	if !fired || ok {
		t.Fatalf("fired=%v ok=%v, want timeout failure", fired, ok)
	}
	if c.dm.Retransmits() != retries {
		t.Fatalf("Retransmits = %d, want %d", c.dm.Retransmits(), retries)
	}
	// Backoff shape: rto + 2rto + 4rto + 8rto = 15*rto.
	if want := 15 * rto; failedAt != want {
		t.Fatalf("failed at %v, want %v (doubling backoff)", failedAt, want)
	}
	if c.dm.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after failure", c.dm.Outstanding())
	}
	assertNoRecordLeaked(t, c.dm)
	// A late resolve must be dropped.
	if c.dm.Resolve(id, respMsg{id: id}) {
		t.Fatal("Resolve after budget exhaustion should return false")
	}
}

// TestTransmitDuplicateResponsesResolveOnce duplicates every delivery on
// the return path: the completion callback must still fire exactly once.
func TestTransmitDuplicateResponsesResolveOnce(t *testing.T) {
	env, c, s := retryPair(t)
	env.LinkBetween("server", "client").Dup = 1

	calls := 0
	id := c.dm.InvokeRetryArg(func(arg any, m sim.Message, ok bool) {
		calls++
		if !ok {
			t.Fatalf("resolve with ok=false")
		}
		if arg.(string) != "txn" {
			t.Fatalf("arg = %v", arg)
		}
	}, "txn")
	c.dm.Transmit(env, id, "server", reqMsg{id: id}, 100*time.Millisecond, 3)
	env.Run()

	if calls != 1 {
		t.Fatalf("callback fired %d times under response duplication, want 1", calls)
	}
	if s.seen != 1 {
		t.Fatalf("server saw %d requests, want 1", s.seen)
	}
	assertNoRecordLeaked(t, c.dm)
}
