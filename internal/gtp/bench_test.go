package gtp

import (
	"testing"

	"vgprs/internal/sim"
)

func BenchmarkMarshalTPDU(b *testing.B) {
	m := TPDU{TID: MakeTID(testIMSI, 5), Payload: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalTPDU(b *testing.B) {
	buf, err := Marshal(TPDU{TID: MakeTID(testIMSI, 5), Payload: make([]byte, 64)})
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

func BenchmarkMarshalCreatePDPRequest(b *testing.B) {
	m := CreatePDPRequest{Seq: 1, IMSI: testIMSI, NSAPI: 5, QoS: VoiceQoS(), SGSN: "SGSN-1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripTPDU(b *testing.B) {
	var m sim.Message = TPDU{TID: MakeTID(testIMSI, 5), Payload: make([]byte, 64)}
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

func BenchmarkRoundTripCreatePDPRequest(b *testing.B) {
	var m sim.Message = CreatePDPRequest{
		Seq: 1, IMSI: testIMSI, NSAPI: 5, QoS: VoiceQoS(), SGSN: "SGSN-1",
	}
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
// itself requires.
func TestAllocCeilings(t *testing.T) {
	var tpdu sim.Message = TPDU{TID: MakeTID(testIMSI, 5), Payload: make([]byte, 64)}
	var create sim.Message = CreatePDPRequest{
		Seq: 1, IMSI: testIMSI, NSAPI: 5, QoS: VoiceQoS(), SGSN: "SGSN-1",
	}
	buf := make([]byte, 0, 128)
	tpduWire, err := Marshal(tpdu)
	if err != nil {
		t.Fatal(err)
	}
	createWire, err := Marshal(create)
	if err != nil {
		t.Fatal(err)
	}

	ceilings := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Append/TPDU", 0, func() {
			if _, err := Append(buf[:0], tpdu); err != nil {
				t.Fatal(err)
			}
		}},
		{"Append/CreatePDPRequest", 0, func() {
			if _, err := Append(buf[:0], create); err != nil {
				t.Fatal(err)
			}
		}},
		{"Marshal/TPDU", 1, func() {
			if _, err := Marshal(tpdu); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmarshal/TPDU", 3, func() {
			if _, err := Unmarshal(tpduWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmarshal/CreatePDPRequest", 3, func() {
			if _, err := Unmarshal(createWire); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range ceilings {
		ceiling := c.max
		if raceEnabled {
			ceiling++ // one per BCD field: CreatePDPRequest carries one (the IMSI)
		}
		if got := testing.AllocsPerRun(200, c.fn); got > ceiling {
			t.Errorf("%s: %.1f allocs/op, ceiling %.0f", c.name, got, ceiling)
		}
	}
}
