package gsmid

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"vgprs/internal/wire"
)

func TestParseIMSI(t *testing.T) {
	im, err := ParseIMSI("466923123456789")
	if err != nil {
		t.Fatal(err)
	}
	if im.MCC() != "466" || im.MNC() != "92" {
		t.Fatalf("MCC/MNC = %s/%s", im.MCC(), im.MNC())
	}
	if im.String() != "466923123456789" {
		t.Fatalf("String = %q", im)
	}
}

func TestParseIMSIErrors(t *testing.T) {
	cases := []string{"12345", strings.Repeat("1", 16), "46692abc"}
	for _, c := range cases {
		if _, err := ParseIMSI(c); !errors.Is(err, ErrBadIMSI) {
			t.Errorf("ParseIMSI(%q) err = %v, want ErrBadIMSI", c, err)
		}
	}
}

func TestParseMSISDN(t *testing.T) {
	m, err := ParseMSISDN("886912345678")
	if err != nil {
		t.Fatal(err)
	}
	if m.CountryCode() != "886" {
		t.Fatalf("CountryCode = %q", m.CountryCode())
	}
}

func TestParseMSISDNErrors(t *testing.T) {
	cases := []string{"12", strings.Repeat("9", 16), "+886123"}
	for _, c := range cases {
		if _, err := ParseMSISDN(c); !errors.Is(err, ErrBadMSISDN) {
			t.Errorf("ParseMSISDN(%q) err = %v, want ErrBadMSISDN", c, err)
		}
	}
}

func TestMustIMSIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustIMSI("bad")
}

func TestMustMSISDNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustMSISDN("x")
}

func TestLocalTLLI(t *testing.T) {
	tlli := LocalTLLI(PTMSI(0x12345678))
	if uint32(tlli)&0xC0000000 != 0xC0000000 {
		t.Fatalf("top bits not set: %s", tlli)
	}
	if uint32(tlli)&0x3FFFFFFF != 0x12345678&0x3FFFFFFF {
		t.Fatalf("low bits mangled: %s", tlli)
	}
}

func TestIdentityStrings(t *testing.T) {
	if got := TMSI(0xAB).String(); got != "TMSI-000000AB" {
		t.Errorf("TMSI.String = %q", got)
	}
	if got := (LAI{"466", "92", 0x1234}).String(); got != "466-92-1234" {
		t.Errorf("LAI.String = %q", got)
	}
	if got := (RAI{LAI{"466", "92", 1}, 7}).String(); got != "466-92-0001-07" {
		t.Errorf("RAI.String = %q", got)
	}
	if got := (CGI{LAI{"466", "92", 1}, 0xBEEF}).String(); got != "466-92-0001-BEEF" {
		t.Errorf("CGI.String = %q", got)
	}
	if got := ByIMSI("466920000000001").String(); got != "IMSI-466920000000001" {
		t.Errorf("MobileIdentity.String = %q", got)
	}
	if got := (MobileIdentity{}).String(); got != "MobileIdentity(unset)" {
		t.Errorf("zero MobileIdentity.String = %q", got)
	}
	if got := IdentityPTMSI.String(); got != "P-TMSI" {
		t.Errorf("kind string = %q", got)
	}
	if got := MobileIdentityKind(9).String(); got != "MobileIdentityKind(9)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func roundTripIdentity(t *testing.T, m MobileIdentity) MobileIdentity {
	t.Helper()
	w := wire.NewWriter(16)
	m.Marshal(w)
	r := wire.NewReader(w.Bytes())
	got := UnmarshalMobileIdentity(r)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	return got
}

func TestMobileIdentityRoundTrip(t *testing.T) {
	cases := []MobileIdentity{
		ByIMSI("466923123456789"),
		ByTMSI(0xDEADBEEF),
		{Kind: IdentityPTMSI, PTMSI: 0x01020304},
	}
	for _, m := range cases {
		if got := roundTripIdentity(t, m); got != m {
			t.Errorf("round trip %v -> %v", m, got)
		}
	}
}

func TestLAIRoundTrip(t *testing.T) {
	l := LAI{"466", "92", 0xABCD}
	w := wire.NewWriter(8)
	MarshalLAI(w, l)
	r := wire.NewReader(w.Bytes())
	got := UnmarshalLAI(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got != l {
		t.Fatalf("round trip %v -> %v", l, got)
	}
}

func TestMobileIdentityRoundTripProperty(t *testing.T) {
	prop := func(tmsi uint32, pick bool) bool {
		var m MobileIdentity
		if pick {
			m = ByTMSI(TMSI(tmsi))
		} else {
			m = MobileIdentity{Kind: IdentityPTMSI, PTMSI: PTMSI(tmsi)}
		}
		w := wire.NewWriter(8)
		m.Marshal(w)
		r := wire.NewReader(w.Bytes())
		return UnmarshalMobileIdentity(r) == m && r.Err() == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIMSIRoundTripProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		digits := make([]byte, 0, 15)
		for i := 0; i < len(raw) && len(digits) < 15; i++ {
			digits = append(digits, '0'+raw[i]%10)
		}
		if len(digits) < 6 {
			return true // not a valid IMSI length; nothing to check
		}
		im, err := ParseIMSI(string(digits))
		if err != nil {
			return false
		}
		got := roundTripIdentityQuick(ByIMSI(im))
		return got.IMSI == im
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func roundTripIdentityQuick(m MobileIdentity) MobileIdentity {
	w := wire.NewWriter(16)
	m.Marshal(w)
	return UnmarshalMobileIdentity(wire.NewReader(w.Bytes()))
}
