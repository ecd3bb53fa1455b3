package gsm

import (
	"testing"

	"vgprs/internal/codec"
	"vgprs/internal/gsmid"
)

func BenchmarkMarshalSetup(b *testing.B) {
	m := Setup{Leg: LegUm, MS: "MS-1", CallRef: 5, Called: "886200000001", Calling: "886900000001"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalSetup(b *testing.B) {
	m := Setup{Leg: LegUm, MS: "MS-1", CallRef: 5, Called: "886200000001", Calling: "886900000001"}
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

func BenchmarkMarshalTCHFrame(b *testing.B) {
	m := TCHFrame{Leg: LegUm, MS: "MS-1", CallRef: 5, Seq: 9, Payload: codec.NewFrame(0, 9)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWithLeg(b *testing.B) {
	m := LocationUpdate{Leg: LegUm, MS: "MS-1", Identity: gsmid.ByTMSI(7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = WithLeg(m, LegAbis)
	}
}
