package ss7

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"vgprs/internal/sim"
	"vgprs/internal/txn"
)

func TestMSURoundTrip(t *testing.T) {
	m := MSU{OPC: 100, DPC: 200, SLS: 3, Service: ServiceSCCP, Payload: []byte{1, 2, 3}}
	got, err := UnmarshalMSU(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.OPC != m.OPC || got.DPC != m.DPC || got.SLS != m.SLS || got.Service != m.Service ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip %+v -> %+v", m, got)
	}
}

func TestMSURoundTripProperty(t *testing.T) {
	prop := func(opc, dpc uint16, sls uint8, svc uint8, payload []byte) bool {
		if len(payload) > 0xFFFF {
			payload = payload[:0xFFFF]
		}
		m := MSU{PointCode(opc), PointCode(dpc), sls, ServiceIndicator(svc), payload}
		got, err := UnmarshalMSU(m.Marshal())
		if err != nil {
			return false
		}
		return got.OPC == m.OPC && got.DPC == m.DPC && got.SLS == m.SLS &&
			got.Service == m.Service && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalMSUErrors(t *testing.T) {
	if _, err := UnmarshalMSU([]byte{1, 2}); !errors.Is(err, ErrBadMSU) {
		t.Errorf("short buffer err = %v", err)
	}
	// Valid MSU plus trailing garbage.
	b := append(MSU{Service: ServiceISUP}.Marshal(), 0xFF)
	if _, err := UnmarshalMSU(b); !errors.Is(err, ErrBadMSU) {
		t.Errorf("trailing bytes err = %v", err)
	}
}

func TestServiceIndicatorStrings(t *testing.T) {
	if ServiceSCCP.String() != "SCCP" || ServiceISUP.String() != "ISUP" {
		t.Fatal("known indicator strings wrong")
	}
	if ServiceIndicator(7).String() != "ServiceIndicator(7)" {
		t.Fatal("unknown indicator string wrong")
	}
	if PointCode(9).String() != "PC-9" {
		t.Fatal("point code string wrong")
	}
}

func TestDialogueResolve(t *testing.T) {
	env := sim.NewEnv(1)
	dm := NewDialogueManager("client")
	var got sim.Message
	var ok bool
	id := dm.Invoke(env, time.Second, func(m sim.Message, k bool) { got, ok = m, k })
	if dm.Stats().InFlight != 1 {
		t.Fatalf("in flight = %d", dm.Stats().InFlight)
	}
	if !dm.Resolve(id, fakeMsg{}) {
		t.Fatal("Resolve returned false for pending invoke")
	}
	if !ok || got == nil {
		t.Fatal("callback not fired with response")
	}
	if dm.Stats().InFlight != 0 {
		t.Fatalf("in flight after resolve = %d", dm.Stats().InFlight)
	}
	env.Run() // timeout must not re-fire
	if !ok {
		t.Fatal("timeout fired after resolve")
	}
}

func TestDialogueTimeout(t *testing.T) {
	env := sim.NewEnv(1)
	dm := NewDialogueManager("client")
	calls := 0
	var lastOK bool
	id := dm.Invoke(env, 10*time.Millisecond, func(_ sim.Message, k bool) {
		calls++
		lastOK = k
	})
	env.Run()
	if calls != 1 || lastOK {
		t.Fatalf("calls=%d ok=%v, want one failure callback", calls, lastOK)
	}
	// Late response is dropped.
	if dm.Resolve(id, fakeMsg{}) {
		t.Fatal("Resolve after timeout should return false")
	}
	if calls != 1 {
		t.Fatalf("late resolve re-fired callback: calls=%d", calls)
	}
}

func TestDialogueZeroTimeoutNeverExpires(t *testing.T) {
	env := sim.NewEnv(1)
	dm := NewDialogueManager("client")
	fired := false
	dm.Invoke(env, 0, func(_ sim.Message, _ bool) { fired = true })
	env.Run()
	if fired {
		t.Fatal("zero-timeout invoke expired")
	}
	if dm.Stats().InFlight != 1 {
		t.Fatalf("in flight = %d", dm.Stats().InFlight)
	}
}

func TestDialogueDistinctIDs(t *testing.T) {
	env := sim.NewEnv(1)
	dm := NewDialogueManager("client")
	seen := make(map[InvokeID]bool)
	for range 100 {
		id := dm.Invoke(env, 0, func(sim.Message, bool) {})
		if seen[id] {
			t.Fatalf("duplicate invoke ID %d", id)
		}
		seen[id] = true
	}
}

func TestDialogueResolveUnknown(t *testing.T) {
	dm := NewDialogueManager("client")
	if dm.Resolve(42, fakeMsg{}) {
		t.Fatal("Resolve of unknown ID should return false")
	}
}

type fakeMsg struct{}

func (fakeMsg) Name() string { return "FAKE" }

// TestInvokeRecordSize pins what one outstanding MAP invoke occupies in its
// manager's table: a burst of dialogues allocates this much each, and gives
// it back when the burst is over.
func TestInvokeRecordSize(t *testing.T) {
	if got := txn.RecordSize[InvokeID, invoke](); got > 112 {
		t.Fatalf("invoke record is %d bytes, budget 112", got)
	}
}
