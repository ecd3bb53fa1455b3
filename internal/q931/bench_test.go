package q931

import (
	"net/netip"
	"testing"

	"vgprs/internal/sim"
)

func benchSetup() Setup {
	return Setup{
		CallRef: 7, Called: "886912345678", Calling: "85291234567",
		Media: MediaAddr{Addr: netip.MustParseAddr("10.1.0.9"), Port: 4000},
	}
}

func BenchmarkMarshalSetup(b *testing.B) {
	m := benchSetup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSetup(b *testing.B) {
	m := benchSetup()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = Append(buf[:0], m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalSetup(b *testing.B) {
	buf, err := Marshal(benchSetup())
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

func BenchmarkRoundTripSetup(b *testing.B) {
	m := benchSetup()
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

// TestAllocCeilings locks in the pooled-codec allocation guarantees:
// Append into a pre-sized buffer must not allocate at all, Marshal may
// allocate only the returned copy, and Unmarshal only what the decoded
// message itself requires.
func TestAllocCeilings(t *testing.T) {
	// Box the message once: the ceilings measure the codec, not the
	// caller's interface conversion.
	var m sim.Message = benchSetup()
	buf := make([]byte, 0, 64)
	wire, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}

	ceilings := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Append", 0, func() {
			if _, err := Append(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		}},
		{"Marshal", 1, func() {
			if _, err := Marshal(m); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmarshal", 3, func() {
			if _, err := Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range ceilings {
		ceiling := c.max
		if raceEnabled {
			ceiling += 2 // one per BCD field: the Setup carries two (called and calling number)
		}
		if got := testing.AllocsPerRun(200, c.fn); got > ceiling {
			t.Errorf("%s: %.1f allocs/op, ceiling %.0f", c.name, got, ceiling)
		}
	}
}
