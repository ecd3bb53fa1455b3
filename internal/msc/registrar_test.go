package msc

import (
	"testing"
	"time"

	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
)

// silentVLR never answers — for timeout paths — and counts what it is sent.
type silentVLR struct {
	id  sim.NodeID
	got int
}

func (v *silentVLR) ID() sim.NodeID                                    { return v.id }
func (v *silentVLR) Receive(*sim.Env, sim.NodeID, string, sim.Message) { v.got++ }

// bscStub records downlink radio messages.
type bscStub struct {
	id  sim.NodeID
	got []sim.Message
}

func (b *bscStub) ID() sim.NodeID { return b.id }

func (b *bscStub) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	b.got = append(b.got, msg)
}

func TestRegistrarVLRTimeoutFails(t *testing.T) {
	env := sim.NewEnv(1)
	var outcome *Registration
	r := NewRegistrar("MSC-1", "VLR-SILENT", func(_ *sim.Env, reg Registration) {
		outcome = &reg
	})
	r.RTO = 100 * time.Millisecond
	owner := &registrarOwner{id: "MSC-1", r: r}
	vlr := &silentVLR{id: "VLR-SILENT"}
	bsc := &bscStub{id: "BSC-1"}
	env.AddNode(owner)
	env.AddNode(vlr)
	env.AddNode(bsc)
	env.Connect("MSC-1", "VLR-SILENT", "B", time.Millisecond)
	env.Connect("BSC-1", "MSC-1", "A", time.Millisecond)

	env.Send("BSC-1", "MSC-1", gsm.LocationUpdate{
		Leg: gsm.LegA, MS: "MS-1", Identity: gsmid.ByIMSI("466920000000001"),
	})
	env.Run()

	if outcome == nil {
		t.Fatal("no outcome after VLR timeout")
	}
	if outcome.OK() {
		t.Fatal("timed-out registration reported OK")
	}
	if outcome.Cause != sigmap.CauseSystemFailure {
		t.Fatalf("cause = %v", outcome.Cause)
	}
	// The transaction tables are clean for a retry.
	if r.byIdentity.InFlight() != 0 || r.byMS.InFlight() != 0 || r.Imbalance() != 0 {
		t.Fatal("registrar leaked transaction state")
	}
}

// TestRegistrarDedupesLocationUpdate repeats a LocationUpdate from the radio
// side while the VLR transaction is in flight: one UpdateLocationArea goes
// out, both lookups hold one transaction, and the VLR's challenge finds it by
// identity and the MS's answer by node name.
func TestRegistrarDedupesLocationUpdate(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistrar("MSC-1", "VLR-SILENT", nil)
	vlr := &silentVLR{id: "VLR-SILENT"}
	env.AddNode(&registrarOwner{id: "MSC-1", r: r})
	env.AddNode(vlr)
	env.AddNode(&bscStub{id: "BSC-1"})
	env.Connect("MSC-1", "VLR-SILENT", "B", time.Millisecond)
	env.Connect("BSC-1", "MSC-1", "A", time.Millisecond)

	id := gsmid.ByIMSI("466920000000001")
	lu := gsm.LocationUpdate{Leg: gsm.LegA, MS: "MS-1", Identity: id}
	env.Send("BSC-1", "MSC-1", lu)
	env.Send("BSC-1", "MSC-1", lu)
	env.RunUntil(10 * time.Millisecond)
	if vlr.got != 1 || r.byMS.InFlight() != 1 || r.byIdentity.InFlight() != 1 || r.Pending() != 2 {
		t.Fatalf("VLR saw %d requests; %d by MS, %d by identity, Pending %d",
			vlr.got, r.byMS.InFlight(), r.byIdentity.InFlight(), r.Pending())
	}
	if !r.Handle(env, "VLR-SILENT", sigmap.Authenticate{Invoke: 9, Identity: id}) ||
		!r.Handle(env, "BSC-1", gsm.AuthResponse{MS: "MS-1"}) {
		t.Fatal("the in-flight transaction was not found by identity and by MS")
	}
	env.Run() // the silent VLR lets the invoke time out
	if r.Pending() != 0 || r.Imbalance() != 0 {
		t.Fatalf("after the timeout: Pending %d, imbalance %d", r.Pending(), r.Imbalance())
	}
}

// registrarOwner is a minimal node driving a Registrar.
type registrarOwner struct {
	id sim.NodeID
	r  *Registrar
}

func (o *registrarOwner) ID() sim.NodeID { return o.id }

func (o *registrarOwner) Receive(env *sim.Env, from sim.NodeID, _ string, msg sim.Message) {
	o.r.Handle(env, from, msg)
}

func TestRegistrarIgnoresForeignMessages(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRegistrar("MSC-1", "VLR-1", nil)
	if r.Handle(env, "X", foreignReg{}) {
		t.Fatal("foreign message consumed")
	}
	// Auth for an unknown identity is not consumed either.
	if r.Handle(env, "X", sigmap.Authenticate{Identity: gsmid.ByTMSI(9)}) {
		t.Fatal("stray Authenticate consumed")
	}
	if r.Handle(env, "X", gsm.AuthResponse{MS: "MS-?"}) {
		t.Fatal("stray AuthResponse consumed")
	}
}

type foreignReg struct{}

func (foreignReg) Name() string { return "X" }
