package trace_test

import (
	"fmt"
	"time"

	"vgprs/internal/sim"
	"vgprs/internal/trace"
)

type step string

func (s step) Name() string { return string(s) }

// node answers each message it receives with on's sends.
type node struct {
	id sim.NodeID
	on func(env *sim.Env, from sim.NodeID, msg string)
}

func (n node) ID() sim.NodeID { return n.id }

func (n node) Receive(env *sim.Env, from sim.NodeID, iface string, msg sim.Message) {
	if n.on != nil {
		n.on(env, from, msg.Name())
	}
}

// ExampleRecorder_ExpectFlow shows how the paper's figures become
// executable assertions, with the release fork of Fig 5: once the MS
// disconnects, the VMSC disengages from the gatekeeper and, concurrently,
// releases the terminal, which disengages too. The flow orders each branch
// but not the branches: here the terminal's branch, on faster links,
// overtakes the VMSC's, which a single total order would have refused.
func ExampleRecorder_ExpectFlow() {
	env := sim.NewEnv(1)
	rec := trace.NewRecorder()
	env.SetTracer(rec)

	env.AddNode(node{id: "MS"})
	env.AddNode(node{id: "VMSC", on: func(env *sim.Env, _ sim.NodeID, msg string) {
		if msg == "A_Disconnect" {
			env.Send("VMSC", "GK", step("RAS DRQ"))
			env.Send("VMSC", "TERM", step("Q.931 Release Complete"))
		}
	}})
	env.AddNode(node{id: "GK", on: func(env *sim.Env, from sim.NodeID, _ string) {
		env.Send("GK", from, step("RAS DCF"))
	}})
	env.AddNode(node{id: "TERM", on: func(env *sim.Env, _ sim.NodeID, msg string) {
		if msg == "Q.931 Release Complete" {
			env.Send("TERM", "GK", step("RAS DRQ"))
		}
	}})
	env.Connect("MS", "VMSC", "A", time.Millisecond)
	env.Connect("VMSC", "GK", "RAS", 2*time.Millisecond)
	env.Connect("VMSC", "TERM", "H.225", time.Millisecond)
	env.Connect("TERM", "GK", "RAS", time.Millisecond)

	env.Send("MS", "VMSC", step("A_Disconnect"))
	env.Run()

	release := trace.Flow{
		{Msg: "A_Disconnect", To: "VMSC", Note: "3.1", ID: "disconnect"},
		{Msg: "RAS DRQ", From: "VMSC", To: "GK", Note: "3.3"},
		{Msg: "RAS DCF", From: "GK", To: "VMSC", Note: "3.3", ID: "vmsc-dcf"},
		{Msg: "Q.931 Release Complete", From: "VMSC", To: "TERM", Note: "3.2", After: []string{"disconnect"}},
		{Msg: "RAS DRQ", From: "TERM", To: "GK", Note: "3.3"},
		{Msg: "RAS DCF", From: "GK", To: "TERM", Note: "3.3", ID: "term-dcf"},
	}
	m, err := rec.ExpectFlow(release)
	fmt.Println("release ok:", err == nil)
	fmt.Println("VMSC disengaged after", m.Span("disconnect", "vmsc-dcf"))
	fmt.Println("terminal disengaged after", m.Span("disconnect", "term-dcf"))
	// Output:
	// release ok: true
	// VMSC disengaged after 4ms
	// terminal disengaged after 3ms
}
