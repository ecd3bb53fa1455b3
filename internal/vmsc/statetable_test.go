package vmsc_test

import (
	"testing"
	"time"

	"vgprs/internal/gb"
	"vgprs/internal/gprs"
	"vgprs/internal/gsm"
	"vgprs/internal/gsmid"
	"vgprs/internal/ipnet"
	"vgprs/internal/netsim"
	"vgprs/internal/q931"
	"vgprs/internal/sigmap"
	"vgprs/internal/sim"
	"vgprs/internal/txn"
	"vgprs/internal/vmsc"
)

// The state tables below are the VMSC's two machines, cell by cell. A world is
// stepped until subscriber 0's row (or its call) is in the table row's state,
// and one ingress message is handed to the VMSC. The cell names the state
// right after it and how many messages the VMSC then puts on its links (A, B,
// Gb, E) until quiescence; the table row names that count for the same world
// left alone, so a message the state ignores leaves the count unchanged. Then
// the world is drained — calls hung up — and the VMSC's Audit and its
// transaction tables must read zero throughout. Messages the real MS, BSC or
// terminal did not send can make them react too (an LU reject makes an MS
// with a TMSI register afresh), and the counts include that.

// world is one handoff topology with subscriber 0 on MS-1 and TERM-1 as the
// far party.
type world struct {
	*netsim.HandoffNet
	imsi gsmid.IMSI
}

func newWorld() *world {
	n := netsim.BuildHandoff(netsim.VGPRSOptions{Seed: 1})
	return &world{HandoffNet: n, imsi: n.Subscribers[0].IMSI}
}

func (w *world) rowState() string { s, _ := w.VMSC.RowState(w.imsi); return s }

func (w *world) callState() string { s, _, _ := w.VMSC.CallState(w.imsi); return s }

// stepUntil steps the world until ok holds, for at most a simulated minute.
func (w *world) stepUntil(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for end := w.Env.Now() + time.Minute; !ok(); {
		if w.Env.Now() > end || !w.Env.Step() {
			t.Fatalf("never reached %s", what)
		}
	}
}

// vmscSent counts the messages the VMSC put on its links since the
// recorder's last reset.
func (w *world) vmscSent() int {
	n := 0
	for _, e := range w.Rec.Entries() {
		switch e.Iface {
		case "A", "B", "Gb", "E":
			if e.From == w.VMSC.ID() {
				n++
			}
		}
	}
	return n
}

func (w *world) drain() { w.Env.RunUntil(w.Env.Now() + time.Minute) }

// a hands the VMSC an A-interface message from BSC-1.
func (w *world) a(msg sim.Message) { w.VMSC.Receive(w.Env, "BSC-1", "A", msg) }

// q931 hands the VMSC a Q.931 message from TERM-1 carrying the call's
// reference, the way it arrives: in an IP packet on the row's signalling PDP
// context, down the Gb interface.
func (w *world) q931(t *testing.T, msg func(ref uint16) sim.Message) {
	_, ref, _ := w.VMSC.CallState(w.imsi)
	addr, _, _ := w.VMSC.Entry(w.imsi)
	body, err := q931.Marshal(msg(ref))
	if err != nil {
		t.Fatal(err)
	}
	pkt := ipnet.Packet{
		Src: ipnet.MustAddr("192.168.1.10"), Dst: addr, Proto: ipnet.ProtoTCP,
		SrcPort: ipnet.PortQ931, DstPort: ipnet.PortQ931, Payload: body,
	}
	w.VMSC.Receive(w.Env, "SGSN-1", "Gb", gb.DLUnitdata{
		TLLI: w.VMSC.RowTLLI(w.imsi), MS: "MS-1", PDU: gprs.WrapData(vmsc.NSAPISignalling, pkt),
	})
}

// hangUp clears whatever call the world still holds, from both ends.
func (w *world) hangUp() {
	_ = w.MSs[0].Hangup(w.Env)
	for _, ref := range w.Terminals[0].CallRefs() {
		_ = w.Terminals[0].Hangup(w.Env, ref)
	}
}

func (w *world) audit(t *testing.T) {
	t.Helper()
	w.VMSC.Audit(func(kind string, n int) {
		if n != 0 {
			t.Errorf("after the drain the VMSC audits %d %s", n, kind)
		}
	})
	w.VMSC.TxnStats(func(plane string, s txn.Stats) {
		if s.InFlight != 0 || s.Imbalance != 0 {
			t.Errorf("after the drain the VMSC's %s table holds %+v", plane, s)
		}
	})
}

type ingress struct {
	name string
	send func(t *testing.T, w *world)
}

type reach struct {
	name string
	to   func(t *testing.T, w *world)
}

// outcome is a table cell: the state right after the message ("" once the
// row is freed or the call released) and the messages the VMSC sends after it.
type outcome struct {
	next string
	sent int
}

// tableRow is one state of a machine: what the VMSC sends left alone, and
// the outcome of each message.
type tableRow struct {
	alone int
	cells map[string]outcome
}

// runTable plays every cell of a machine's table.
func runTable(t *testing.T, states []reach, msgs []ingress, state func(*world) string, table map[string]tableRow) {
	for _, st := range states {
		base := newWorld()
		st.to(t, base)
		base.Rec.Reset()
		base.drain()
		if got, want := base.vmscSent(), table[st.name].alone; got != want {
			t.Errorf("%s left alone: the VMSC sends %d messages, the table names %d", st.name, got, want)
		}
		for _, m := range msgs {
			t.Run(st.name+"/"+m.name, func(t *testing.T) {
				w := newWorld()
				st.to(t, w)
				w.Rec.Reset()
				m.send(t, w)
				got := outcome{next: state(w)}
				w.drain()
				got.sent = w.vmscSent()
				if want := table[st.name].cells[m.name]; got != want {
					t.Errorf("got %+v, the table names %+v", got, want)
				}
				w.hangUp()
				w.drain()
				w.audit(t)
			})
		}
	}
}

func registeredWorld(t *testing.T, w *world) {
	t.Helper()
	if err := w.RegisterAll(); err != nil {
		t.Fatal(err)
	}
}

func rowIs(t *testing.T, w *world, want string, attached bool) {
	t.Helper()
	if got, att := w.VMSC.RowState(w.imsi); got != want || att != attached {
		t.Fatalf("row is %s (attached %v), want %s (attached %v)", got, att, want, attached)
	}
}

var (
	luOutcome = ingress{"LU-outcome", func(_ *testing.T, w *world) {
		w.VMSC.LocationUpdated(w.Env, w.imsi, "MS-1", "BSC-1")
	}}
	imsiDetach = ingress{"IMSIDetach", func(_ *testing.T, w *world) {
		w.a(gsm.IMSIDetach{Leg: gsm.LegA, MS: "MS-1"})
	}}
	cancelLocation = ingress{"CancelLocation", func(_ *testing.T, w *world) {
		w.VMSC.Receive(w.Env, "VLR-1", "B", sigmap.CancelLocation{IMSI: w.imsi})
	}}
)

func TestRowStateTable(t *testing.T) {
	states := []reach{
		{"resident", func(t *testing.T, w *world) {
			w.Terminals[0].Register(w.Env)
			w.drain()
			rowIs(t, w, "resident", false)
		}},
		{"registering", func(t *testing.T, w *world) {
			w.MSs[0].PowerOn(w.Env)
			w.stepUntil(t, "registering", func() bool { return w.rowState() == "registering" })
			rowIs(t, w, "registering", false)
		}},
		{"registering-attached", func(t *testing.T, w *world) {
			w.MSs[0].PowerOn(w.Env)
			w.stepUntil(t, "the attach", func() bool { _, att := w.VMSC.RowState(w.imsi); return att })
			rowIs(t, w, "registering", true)
		}},
		{"registered", func(t *testing.T, w *world) {
			registeredWorld(t, w)
			rowIs(t, w, "registered", true)
		}},
		{"reregistering", func(t *testing.T, w *world) {
			registeredWorld(t, w)
			w.VMSC.Reregister(w.Env, w.imsi)
			rowIs(t, w, "reregistering", true)
		}},
		{"deregistering", func(t *testing.T, w *world) {
			registeredWorld(t, w)
			imsiDetach.send(t, w)
			rowIs(t, w, "deregistering", true)
		}},
		{"purging", func(t *testing.T, w *world) {
			registeredWorld(t, w)
			cancelLocation.send(t, w)
			rowIs(t, w, "purging", true)
		}},
	}
	runTable(t, states, []ingress{luOutcome, imsiDetach, cancelLocation},
		func(w *world) string { return w.rowState() }, rowTable)
}

var rowTable = map[string]tableRow{
	"resident": {0, map[string]outcome{
		"LU-outcome":     {"registering", 4},
		"IMSIDetach":     {"resident", 0},
		"CancelLocation": {"", 0},
	}},
	"registering": {4, map[string]outcome{
		"LU-outcome":     {"registering", 5},
		"IMSIDetach":     {"registering", 4},
		"CancelLocation": {"", 2},
	}},
	"registering-attached": {3, map[string]outcome{
		"LU-outcome":     {"registering", 4},
		"IMSIDetach":     {"registering", 3},
		"CancelLocation": {"purging", 3},
	}},
	"registered": {0, map[string]outcome{
		"LU-outcome":     {"registered", 1},
		"IMSIDetach":     {"deregistering", 2},
		"CancelLocation": {"purging", 2},
	}},
	"reregistering": {1, map[string]outcome{
		"LU-outcome":     {"reregistering", 2},
		"IMSIDetach":     {"deregistering", 3},
		"CancelLocation": {"purging", 3},
	}},
	"deregistering": {2, map[string]outcome{
		"LU-outcome":     {"deregistering", 12},
		"IMSIDetach":     {"deregistering", 2},
		"CancelLocation": {"purging", 2},
	}},
	"purging": {2, map[string]outcome{
		"LU-outcome":     {"purging", 12},
		"IMSIDetach":     {"purging", 2},
		"CancelLocation": {"purging", 2},
	}},
}

func TestCallStateTable(t *testing.T) {
	mo := func(want string) reach {
		return reach{"MO-" + want, func(t *testing.T, w *world) {
			registeredWorld(t, w)
			if err := w.MSs[0].Dial(w.Env, netsim.TerminalAlias(0)); err != nil {
				t.Fatal(err)
			}
			w.stepUntil(t, want, func() bool { return w.callState() == want })
		}}
	}
	mt := func(want string) reach {
		return reach{"MT-" + want, func(t *testing.T, w *world) {
			registeredWorld(t, w)
			if _, err := w.Terminals[0].Call(w.Env, w.Subscribers[0].MSISDN); err != nil {
				t.Fatal(err)
			}
			w.stepUntil(t, want, func() bool { return w.callState() == want })
		}}
	}
	handedOver := reach{"MO-handed-over", func(t *testing.T, w *world) {
		mo("active").to(t, w)
		w.Env.RunUntil(w.Env.Now() + time.Second)
		if !w.RunHandoff(w.MSs[0], 10*time.Second) || w.callState() != "handed-over" {
			t.Fatalf("handover did not complete: call %s", w.callState())
		}
	}}
	states := []reach{
		mo("routing"), mo("delivering"), mo("alerting"), mo("connecting"), mo("active"), handedOver,
		mt("paging"), mt("delivering"), mt("alerting"), mt("connecting"), mt("active"),
	}
	msgs := []ingress{
		{"Setup", func(_ *testing.T, w *world) {
			w.a(gsm.Setup{Leg: gsm.LegA, MS: "MS-1", CallRef: 77, Called: netsim.TerminalAlias(0)})
		}},
		{"PagingResponse", func(_ *testing.T, w *world) {
			w.a(gsm.PagingResponse{Leg: gsm.LegA, MS: "MS-1", Identity: gsmid.ByTMSI(1)})
		}},
		{"Alerting", func(_ *testing.T, w *world) { w.a(gsm.Alerting{Leg: gsm.LegA, MS: "MS-1"}) }},
		{"Connect", func(_ *testing.T, w *world) { w.a(gsm.Connect{Leg: gsm.LegA, MS: "MS-1"}) }},
		{"Disconnect", func(_ *testing.T, w *world) { w.a(gsm.Disconnect{Leg: gsm.LegA, MS: "MS-1"}) }},
		{"Q931-Connect", func(t *testing.T, w *world) {
			w.q931(t, func(ref uint16) sim.Message {
				return q931.Connect{CallRef: ref, Media: q931.MediaAddr{Addr: ipnet.MustAddr("192.168.1.10"), Port: ipnet.PortRTP}}
			})
		}},
		{"Q931-ReleaseComplete", func(t *testing.T, w *world) {
			w.q931(t, func(ref uint16) sim.Message { return q931.ReleaseComplete{CallRef: ref, Cause: q931.CauseNormal} })
		}},
		{"HandoverComplete", func(_ *testing.T, w *world) {
			_, _, ho := w.VMSC.CallState(w.imsi)
			w.a(gsm.HandoverComplete{Leg: gsm.LegA, MS: "MS-1", CallRef: ho})
		}},
	}
	runTable(t, states, msgs, func(w *world) string { return w.callState() }, callTable)
}

var callTable = map[string]tableRow{
	"MO-routing": {7, map[string]outcome{
		"Setup":                {"routing", 8},
		"PagingResponse":       {"routing", 8},
		"Alerting":             {"routing", 7},
		"Connect":              {"routing", 7},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"routing", 7},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"routing", 7},
	}},
	"MO-delivering": {5, map[string]outcome{
		"Setup":                {"delivering", 6},
		"PagingResponse":       {"delivering", 6},
		"Alerting":             {"delivering", 5},
		"Connect":              {"delivering", 5},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"connecting", 5},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"delivering", 5},
	}},
	"MO-alerting": {4, map[string]outcome{
		"Setup":                {"alerting", 5},
		"PagingResponse":       {"alerting", 5},
		"Alerting":             {"alerting", 4},
		"Connect":              {"alerting", 4},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"connecting", 5},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"alerting", 4},
	}},
	"MO-connecting": {3, map[string]outcome{
		"Setup":                {"connecting", 4},
		"PagingResponse":       {"connecting", 4},
		"Alerting":             {"connecting", 3},
		"Connect":              {"connecting", 3},
		"Disconnect":           {"", 7},
		"Q931-Connect":         {"connecting", 4},
		"Q931-ReleaseComplete": {"", 6},
		"HandoverComplete":     {"connecting", 3},
	}},
	"MO-active": {0, map[string]outcome{
		"Setup":                {"active", 1},
		"PagingResponse":       {"active", 1},
		"Alerting":             {"active", 0},
		"Connect":              {"active", 0},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"active", 1},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"active", 0},
	}},
	"MO-handed-over": {1, map[string]outcome{
		"Setup":                {"handed-over", 2},
		"PagingResponse":       {"handed-over", 2},
		"Alerting":             {"handed-over", 1},
		"Connect":              {"handed-over", 1},
		"Disconnect":           {"", 5},
		"Q931-Connect":         {"handed-over", 2},
		"Q931-ReleaseComplete": {"", 4},
		"HandoverComplete":     {"active", 2},
	}},
	"MT-paging": {7, map[string]outcome{
		"Setup":                {"paging", 8},
		"PagingResponse":       {"delivering", 7},
		"Alerting":             {"paging", 7},
		"Connect":              {"paging", 7},
		"Disconnect":           {"", 5},
		"Q931-Connect":         {"paging", 7},
		"Q931-ReleaseComplete": {"", 4},
		"HandoverComplete":     {"paging", 7},
	}},
	"MT-delivering": {4, map[string]outcome{
		"Setup":                {"delivering", 5},
		"PagingResponse":       {"delivering", 5},
		"Alerting":             {"alerting", 4},
		"Connect":              {"connecting", 3},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"delivering", 4},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"delivering", 4},
	}},
	"MT-alerting": {3, map[string]outcome{
		"Setup":                {"alerting", 2},
		"PagingResponse":       {"alerting", 2},
		"Alerting":             {"alerting", 3},
		"Connect":              {"connecting", 3},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"alerting", 3},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"alerting", 3},
	}},
	"MT-connecting": {2, map[string]outcome{
		"Setup":                {"connecting", 3},
		"PagingResponse":       {"connecting", 3},
		"Alerting":             {"connecting", 2},
		"Connect":              {"connecting", 2},
		"Disconnect":           {"", 6},
		"Q931-Connect":         {"connecting", 2},
		"Q931-ReleaseComplete": {"", 5},
		"HandoverComplete":     {"connecting", 2},
	}},
	"MT-active": {0, map[string]outcome{
		"Setup":                {"active", 1},
		"PagingResponse":       {"active", 1},
		"Alerting":             {"active", 0},
		"Connect":              {"active", 0},
		"Disconnect":           {"", 4},
		"Q931-Connect":         {"active", 0},
		"Q931-ReleaseComplete": {"", 3},
		"HandoverComplete":     {"active", 0},
	}},
}
