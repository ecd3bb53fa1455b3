package isup

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"vgprs/internal/gsmid"
	"vgprs/internal/sim"
)

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []sim.Message{
		IAM{CIC: 5, CallRef: 77, Called: "886912345678", Calling: "85291234567"},
		ACM{CIC: 5, CallRef: 77},
		ANM{CIC: 5, CallRef: 77},
		REL{CIC: 5, CallRef: 77, Cause: CauseUserBusy},
		RLC{CIC: 5, CallRef: 77},
	}
	for _, m := range msgs {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", m, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%T): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %#v -> %#v", m, got)
		}
	}
}

func TestIAMRoundTripProperty(t *testing.T) {
	prop := func(cic uint16, ref uint32, raw []byte) bool {
		digits := make([]byte, 0, 12)
		for i := 0; i < len(raw) && len(digits) < 12; i++ {
			digits = append(digits, '0'+raw[i]%10)
		}
		if len(digits) < 3 {
			return true
		}
		m := IAM{CIC: CIC(cic), CallRef: ref,
			Called: gsmid.MSISDN(digits), Calling: gsmid.MSISDN(digits)}
		b, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{0xEE, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("unknown type err = %v", err)
	}
	if _, err := Unmarshal([]byte{mtIAM, 0}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short err = %v", err)
	}
	b, err := Marshal(RLC{CIC: 1, CallRef: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(b, 1)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing err = %v", err)
	}
}

func TestMarshalForeignType(t *testing.T) {
	if _, err := Marshal(foreign{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrunkClassCost(t *testing.T) {
	if TrunkLocal.CostUnits() != 1 || TrunkNational.CostUnits() != 5 || TrunkInternational.CostUnits() != 25 {
		t.Fatal("cost units changed; tromboning tables depend on 1/5/25")
	}
	if TrunkClass(0).CostUnits() != 0 {
		t.Fatal("unknown class should cost 0")
	}
	if TrunkInternational.String() != "international" || TrunkClass(9).String() != "TrunkClass(9)" {
		t.Fatal("class strings wrong")
	}
}

func TestReleaseCauseStrings(t *testing.T) {
	if CauseNormalClearing.String() != "normal-clearing" || ReleaseCause(0).String() != "ReleaseCause(0)" {
		t.Fatal("release cause strings wrong")
	}
}

func TestTrunkGroupSeizeRelease(t *testing.T) {
	tg := NewTrunkGroup("test", TrunkLocal, 2)
	c1, err := tg.Seize()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tg.Seize()
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatalf("duplicate CIC %d", c1)
	}
	if _, err := tg.Seize(); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("exhausted group err = %v", err)
	}
	if tg.InUse() != 2 {
		t.Fatalf("InUse = %d", tg.InUse())
	}
	tg.Release(c1)
	if tg.InUse() != 1 {
		t.Fatalf("InUse after release = %d", tg.InUse())
	}
	c3, err := tg.Seize()
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c1 {
		t.Fatalf("expected reuse of released CIC %d, got %d", c1, c3)
	}
	if tg.TotalSeizures() != 3 {
		t.Fatalf("TotalSeizures = %d", tg.TotalSeizures())
	}
}

func TestTrunkGroupDoubleReleaseIsNoop(t *testing.T) {
	tg := NewTrunkGroup("t", TrunkLocal, 1)
	c, err := tg.Seize()
	if err != nil {
		t.Fatal(err)
	}
	tg.Release(c)
	tg.Release(c) // glare: must not panic or corrupt
	if tg.InUse() != 0 {
		t.Fatalf("InUse = %d", tg.InUse())
	}
}

func TestNewTrunkGroupPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTrunkGroup("bad", TrunkLocal, 0)
}

func TestTrunkSeizeNeverExceedsSizeProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		const size = 4
		tg := NewTrunkGroup("p", TrunkNational, size)
		var held []CIC
		for _, seize := range ops {
			if seize {
				c, err := tg.Seize()
				if err == nil {
					held = append(held, c)
				}
			} else if len(held) > 0 {
				tg.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if tg.InUse() > size || tg.InUse() != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type foreign struct{}

func (foreign) Name() string { return "X" }
