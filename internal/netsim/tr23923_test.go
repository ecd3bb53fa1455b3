package netsim

import (
	"testing"
	"time"
)

// strayCS is a message no TR 23.923 element should ever put on the A
// interface.
type strayCS struct{}

func (strayCS) Name() string { return "stray CS message" }

// TestTR23923ResidualDrains puts the TR 23.923 baseline behind the leak gate:
// every procedure the §6 comparison measures — registration, an MO call and
// an MT call, each hung up — drains the network to zero, with the PDP
// context deactivated when idle and kept. Mid-call the gate names the
// mobile's and the terminal's open calls, so it is not vacuous, and a
// message reaching the circuit-switched sink is reported under its kind.
func TestTR23923ResidualDrains(t *testing.T) {
	expectDrained := func(t *testing.T, n *TR23923Net, after string) {
		t.Helper()
		if r := n.Residual(); r.Total() != 0 {
			t.Fatalf("residual after %s:\n%s", after, r.String())
		}
	}
	expectActiveCalls := func(t *testing.T, n *TR23923Net) {
		t.Helper()
		r := n.Residual()
		found := map[string]bool{}
		for _, it := range r.Items {
			if it.Kind == "active calls" && it.Count == 1 {
				found[it.Node] = true
			}
		}
		if !found["MS-1"] || !found["TERM-1"] {
			t.Fatalf("mid-call residual does not name MS-1 and TERM-1:\n%s", r.String())
		}
	}
	for _, keep := range []bool{false, true} {
		n := BuildTR23923(TR23923Options{Seed: 1, KeepPDPActive: keep})
		if err := n.RegisterAll(); err != nil {
			t.Fatal(err)
		}
		expectDrained(t, n, "registration")

		ms := n.MSs[0]
		ref, err := ms.Call(n.Env, TerminalAlias(0))
		if err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 5*time.Second)
		expectActiveCalls(t, n)
		if err := ms.Hangup(n.Env, ref); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		expectDrained(t, n, "MO call and hang-up")

		ref, err = n.Terminal.Call(n.Env, n.Subscribers[0].MSISDN)
		if err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		expectActiveCalls(t, n)
		if err := n.Terminal.Hangup(n.Env, ref); err != nil {
			t.Fatal(err)
		}
		n.Env.RunUntil(n.Env.Now() + 10*time.Second)
		expectDrained(t, n, "MT call and hang-up")
	}

	n := BuildTR23923(TR23923Options{Seed: 1})
	n.Env.Send("BSC-1", "CS-SINK", strayCS{})
	n.Env.Run()
	r := n.Residual()
	if len(r.Items) != 1 || r.Items[0] != (ResidualItem{Node: "CS-SINK", Kind: "stray CS messages", Count: 1}) {
		t.Fatalf("residual after a stray A message:\n%s", r.String())
	}
}
