package h323

import (
	"strings"
	"testing"
	"time"

	"vgprs/internal/ipnet"
	"vgprs/internal/isup"
	"vgprs/internal/q931"
	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

// legCell is one cell of the leg's table: the state right after the message,
// what the leg reports, the message it sends in reply ("" for none), whether
// a T303/T313 cycle still runs, and whether the host's Released hook ran.
type legCell struct {
	next     LegState
	event    LegEvent
	reply    string
	cycle    bool
	released bool
}

// legRow is one state of the leg, reached through the leg's own sends and
// the far end's answers.
type legRow struct {
	name string
	to   func(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall)
}

func outgoing(answer sim.Message) legRow {
	name := "out/setup-sent"
	if answer != nil {
		name = "out/" + map[string]string{
			"CallProceeding": "proceeding", "Alerting": "alerting", "Connect": "connected",
		}[msgName(answer)]
	}
	return legRow{name, func(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) {
		tx.Setup(env, call, q931.Setup{CallRef: call.leg.Ref})
		if answer != nil {
			tx.Receive(env, call, answer)
		}
	}}
}

func incoming(name string, steps ...func(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall)) legRow {
	return legRow{"in/" + name, func(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) {
		call.leg.Incoming = true
		tx.Proceed(env, call)
		for _, step := range steps {
			step(env, tx, call)
		}
	}}
}

// msgName is a Q.931 message's name without its prefix or spaces.
func msgName(m sim.Message) string {
	return strings.ReplaceAll(strings.TrimPrefix(m.Name(), "Q.931 "), " ", "")
}

func alert(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) { tx.Alert(env, call) }

func connect(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) {
	tx.Connect(env, call, q931.MediaAddr{Addr: ipnet.MustAddr("10.0.0.1"), Port: ipnet.PortRTP})
}

func releaseLeg(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) {
	tx.Release(env, call, q931.CauseNormal)
}

// TestLegCellTable plays every (state, message) cell of the Q.931 leg the
// VMSC, the terminal and the gateway share, plus this end's Alert and the
// explicit Reset. Each cell starts from a fresh leg driven into its row's
// state, hands the leg one message from the far end (or makes the one move),
// and compares the cell.
func TestLegCellTable(t *testing.T) {
	rows := []legRow{
		{"out/idle", func(*sim.Env, *Transactions[*testHost, *testCall], *testCall) {}},
		outgoing(nil),
		outgoing(q931.CallProceeding{CallRef: 1}),
		outgoing(q931.Alerting{CallRef: 1}),
		outgoing(q931.Connect{CallRef: 1}),
		{"out/releasing", func(env *sim.Env, tx *Transactions[*testHost, *testCall], call *testCall) {
			tx.Setup(env, call, q931.Setup{CallRef: 1})
			releaseLeg(env, tx, call)
		}},
		incoming("proceeding"),
		incoming("alerting", alert),
		incoming("connected", alert, connect),
		incoming("releasing", releaseLeg),
	}
	msgs := []sim.Message{
		q931.Setup{CallRef: 1}, q931.CallProceeding{CallRef: 1}, q931.Alerting{CallRef: 1},
		q931.Connect{CallRef: 1}, q931.ConnectAck{CallRef: 1}, q931.ReleaseComplete{CallRef: 1},
		nil, nil, // Alert, Reset
	}
	for _, row := range rows {
		for i, msg := range msgs {
			name := "Reset"
			switch {
			case msg != nil:
				name = msgName(msg)
			case i == len(msgs)-2:
				name = "Alert"
			}
			t.Run(row.name+"/"+name, func(t *testing.T) {
				env, h, tx := newTestTransactions(txn.Policy{RTO: time.Second})
				call := &testCall{leg: Leg{Ref: 1, Peer: ipnet.MustAddr("10.0.0.3")}}
				row.to(env, tx, call)
				h.sent = nil
				var got legCell
				switch name {
				case "Reset":
					tx.Reset(call)
				case "Alert":
					alert(env, tx, call)
				default:
					got.event = tx.Receive(env, call, msg)
				}
				got.next = call.leg.State
				if len(h.sent) > 1 {
					t.Fatalf("the leg replied %v", h.sent)
				}
				if len(h.sent) == 1 {
					got.reply = msgName(h.sent[0])
				}
				got.cycle = tx.q931.InFlight() == 1
				got.released = len(h.expired) == 1
				if want := legTable[row.name][name]; got != want {
					t.Errorf("got %+v, the table names %+v", got, want)
				}
			})
		}
	}
}

var (
	released = legCell{next: LegReleasing, event: LegReleased, released: true}
	reset    = legCell{next: LegReleasing}
)

// legTable is the leg, cell by cell. A message a state does not expect
// changes nothing; ReleaseComplete ends every live leg in the host's
// Released hook, and Reset ends every leg without a word. Alert rings only
// an incoming leg still proceeding (reply is then what this end sends).
var legTable = map[string]map[string]legCell{
	"out/idle": {
		"Setup": {next: LegIdle}, "CallProceeding": {next: LegIdle}, "Alerting": {next: LegIdle},
		"Connect": {next: LegIdle}, "ConnectAcknowledge": {next: LegIdle}, "ReleaseComplete": released, "Reset": reset,
		"Alert": {next: LegIdle},
	},
	"out/setup-sent": {
		"Setup":              {next: LegSetupSent, cycle: true},
		"CallProceeding":     {next: LegProceeding},
		"Alerting":           {next: LegAlerting, event: LegAlerted},
		"Connect":            {next: LegConnected, event: LegAnswered, reply: "ConnectAcknowledge"},
		"ConnectAcknowledge": {next: LegSetupSent, cycle: true},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegSetupSent, cycle: true},
	},
	"out/proceeding": {
		"Setup":              {next: LegProceeding},
		"CallProceeding":     {next: LegProceeding},
		"Alerting":           {next: LegAlerting, event: LegAlerted},
		"Connect":            {next: LegConnected, event: LegAnswered, reply: "ConnectAcknowledge"},
		"ConnectAcknowledge": {next: LegProceeding},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegProceeding},
	},
	"out/alerting": {
		"Setup":              {next: LegAlerting},
		"CallProceeding":     {next: LegAlerting},
		"Alerting":           {next: LegAlerting},
		"Connect":            {next: LegConnected, event: LegAnswered, reply: "ConnectAcknowledge"},
		"ConnectAcknowledge": {next: LegAlerting},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegAlerting},
	},
	"out/connected": {
		"Setup":              {next: LegConnected},
		"CallProceeding":     {next: LegConnected},
		"Alerting":           {next: LegConnected},
		"Connect":            {next: LegConnected, reply: "ConnectAcknowledge"},
		"ConnectAcknowledge": {next: LegConnected},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegConnected},
	},
	"out/releasing": {
		"Setup": reset, "CallProceeding": reset, "Alerting": reset,
		"Connect": reset, "ConnectAcknowledge": reset, "ReleaseComplete": reset, "Reset": reset,
		"Alert": reset,
	},
	"in/proceeding": {
		"Setup":              {next: LegProceeding, reply: "CallProceeding"},
		"CallProceeding":     {next: LegProceeding},
		"Alerting":           {next: LegProceeding},
		"Connect":            {next: LegProceeding},
		"ConnectAcknowledge": {next: LegProceeding},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegAlerting, reply: "Alerting"},
	},
	"in/alerting": {
		"Setup":              {next: LegAlerting, reply: "CallProceeding"},
		"CallProceeding":     {next: LegAlerting},
		"Alerting":           {next: LegAlerting},
		"Connect":            {next: LegAlerting},
		"ConnectAcknowledge": {next: LegAlerting},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegAlerting},
	},
	"in/connected": {
		"Setup":              {next: LegConnected, reply: "CallProceeding", cycle: true},
		"CallProceeding":     {next: LegConnected, cycle: true},
		"Alerting":           {next: LegConnected, cycle: true},
		"Connect":            {next: LegConnected, cycle: true},
		"ConnectAcknowledge": {next: LegConnected},
		"ReleaseComplete":    released, "Reset": reset,
		"Alert": {next: LegConnected, cycle: true},
	},
	"in/releasing": {
		"Setup": reset, "CallProceeding": reset, "Alerting": reset,
		"Connect": reset, "ConnectAcknowledge": reset, "ReleaseComplete": reset, "Reset": reset,
		"Alert": reset,
	},
}

// A caller whose CallProceeding was lost retransmits its Setup; the called
// terminal acknowledges every copy, as the VMSC and the gateway do.
func TestTerminalReacksDuplicateSetup(t *testing.T) {
	env := sim.NewEnv(1)
	var proceeding int
	term := NewTerminal(TerminalConfig{
		ID: "TERM", Alias: "85291110001", Addr: ipnet.MustAddr("192.168.1.10"),
		Gatekeeper: ipnet.MustAddr("192.168.1.1"),
		Transport: func(_ *sim.Env, pkt ipnet.Packet) {
			if in, _ := Classify(pkt); in.Q931 != nil {
				if _, ok := in.Q931.(q931.CallProceeding); ok {
					proceeding++
				}
			}
		},
	})
	env.AddNode(term)
	setup, err := q931.Marshal(q931.Setup{CallRef: 9, Called: "85291110001", Calling: "85291110002"})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		term.HandlePacket(env, ipnet.Packet{
			Src: ipnet.MustAddr("192.168.1.11"), Dst: ipnet.MustAddr("192.168.1.10"), Proto: ipnet.ProtoTCP,
			SrcPort: ipnet.PortQ931, DstPort: ipnet.PortQ931, Payload: setup,
		})
	}
	if proceeding != 2 || term.ActiveCalls() != 1 {
		t.Fatalf("two copies of one Setup: %d CallProceeding, %d calls; want 2, 1", proceeding, term.ActiveCalls())
	}
}

// An Alerting that arrives after the call was answered is a late duplicate:
// the gateway's leg is connected, so the exchange hears no second ACM.
func TestGatewayIgnoresAlertingAfterConnect(t *testing.T) {
	f := newGWFixture(t)
	f.env.Send("LE", "GW", isup.IAM{CIC: 3, CallRef: 500, Called: "044781234567", Calling: "85221110001"})
	f.env.RunUntil(f.env.Now() + 2*time.Second)
	if f.exchange.acm != 1 || f.exchange.anm != 1 {
		t.Fatalf("test premise broken: acm=%d anm=%d", f.exchange.acm, f.exchange.anm)
	}
	late, err := q931.Marshal(q931.Alerting{CallRef: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.env.Send("LAN", "GW", ipnet.Packet{
		Src: ipnet.MustAddr("192.168.9.10"), Dst: ipnet.MustAddr("192.168.9.2"), Proto: ipnet.ProtoTCP,
		SrcPort: ipnet.PortQ931, DstPort: ipnet.PortQ931, Payload: late,
	})
	f.env.RunUntil(f.env.Now() + time.Second)
	if f.exchange.acm != 1 {
		t.Fatalf("a late Alerting reached the exchange: %d ACMs, want 1", f.exchange.acm)
	}
}
