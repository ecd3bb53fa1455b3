package sigmap

import (
	"testing"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
)

func BenchmarkMarshalUpdateLocationArea(b *testing.B) {
	m := UpdateLocationArea{
		Invoke:   7,
		Identity: gsmid.ByIMSI("466920000000001"),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		MSC:      "VMSC-1",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalUpdateLocationArea(b *testing.B) {
	m := UpdateLocationArea{
		Invoke:   7,
		Identity: gsmid.ByIMSI("466920000000001"),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		MSC:      "VMSC-1",
	}
	buf, err := Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAuthAck() SendAuthenticationInfoAck {
	var tr AuthTriplet
	for i := range tr.RAND {
		tr.RAND[i] = byte(i)
	}
	return SendAuthenticationInfoAck{
		Invoke: 12, Cause: CauseNone, Triplets: []AuthTriplet{tr, tr, tr},
	}
}

func BenchmarkRoundTripUpdateLocationArea(b *testing.B) {
	var m sim.Message = UpdateLocationArea{
		Invoke:   7,
		Identity: gsmid.ByIMSI("466920000000001"),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		MSC:      "VMSC-1",
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Append(buf[:0], m); err != nil {
			b.Fatal(err)
		}
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripSendAuthInfoAck(b *testing.B) {
	var m sim.Message = benchAuthAck()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Append(buf[:0], m); err != nil {
			b.Fatal(err)
		}
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocCeilings locks in the pooled-codec allocation guarantees:
// Append into a pre-sized buffer must not allocate, Marshal may allocate
// only the returned copy, and Unmarshal only what the decoded message
// itself requires (the boxed message, its strings, and — for the auth ack
// — the one preallocated triplet slice).
func TestAllocCeilings(t *testing.T) {
	var ula sim.Message = UpdateLocationArea{
		Invoke:   7,
		Identity: gsmid.ByIMSI("466920000000001"),
		LAI:      gsmid.LAI{MCC: "466", MNC: "92", LAC: 1},
		MSC:      "VMSC-1",
	}
	var ack sim.Message = benchAuthAck()
	buf := make([]byte, 0, 128)
	ulaWire, err := Marshal(ula)
	if err != nil {
		t.Fatal(err)
	}
	ackWire, err := Marshal(ack)
	if err != nil {
		t.Fatal(err)
	}

	ceilings := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Append/UpdateLocationArea", 0, func() {
			if _, err := Append(buf[:0], ula); err != nil {
				t.Fatal(err)
			}
		}},
		{"Append/SendAuthInfoAck", 0, func() {
			if _, err := Append(buf[:0], ack); err != nil {
				t.Fatal(err)
			}
		}},
		{"Marshal/UpdateLocationArea", 1, func() {
			if _, err := Marshal(ula); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmarshal/UpdateLocationArea", 4, func() {
			if _, err := Unmarshal(ulaWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmarshal/SendAuthInfoAck", 2, func() {
			if _, err := Unmarshal(ackWire); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range ceilings {
		ceiling := c.max
		if raceEnabled {
			ceiling += 2 // one per BCD field: UpdateLocationArea carries two
		}
		if got := testing.AllocsPerRun(200, c.fn); got > ceiling {
			t.Errorf("%s: %.1f allocs/op, ceiling %.0f", c.name, got, ceiling)
		}
	}
}
