package wire

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0x1234)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.String8("hello")
	w.Bytes16([]byte{1, 2, 3})
	w.TLV(0x42, []byte{9, 9})
	w.Raw([]byte{0xFF})

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0x1234 {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0102030405060708 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.String8(); got != "hello" {
		t.Errorf("String8 = %q", got)
	}
	if got := r.Bytes16(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes16 = %v", got)
	}
	tag, val := r.TLV()
	if tag != 0x42 || !bytes.Equal(val, []byte{9, 9}) {
		t.Errorf("TLV = %#x %v", tag, val)
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{0xFF}) {
		t.Errorf("Rest = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.U32()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
	// Error is sticky: later reads return zero values without panicking.
	if got := r.U8(); got != 0 {
		t.Fatalf("U8 after error = %#x, want 0", got)
	}
}

func TestReaderShortString8(t *testing.T) {
	r := NewReader([]byte{10, 'a', 'b'})
	_ = r.String8()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
}

func TestRawCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	r := NewReader(src)
	got := r.Raw(3)
	src[0] = 99
	if got[0] != 1 {
		t.Fatal("Raw must copy out of the network buffer")
	}
}

func TestString8PanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := NewWriter(0)
	w.String8(strings.Repeat("x", 256))
}

func TestTLVPanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := NewWriter(0)
	w.TLV(1, make([]byte, 256))
}

// packed is the BCD field Writer.BCD writes for digits, without its length
// prefix.
func packed(digits string) []byte {
	w := NewWriter(0)
	w.BCD(digits)
	return w.Bytes()[1:]
}

func TestEncodeBCDKnownVector(t *testing.T) {
	// GSM 04.08 swapped-nibble form: "12345" -> 21 43 F5.
	got := packed("12345")
	want := []byte{0x21, 0x43, 0xF5}
	if !bytes.Equal(got, want) {
		t.Fatalf("BCD = % X, want % X", got, want)
	}
}

func TestEncodeBCDEven(t *testing.T) {
	got := packed("466923123456789") // a 15-digit IMSI
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	back, err := DecodeBCD(got)
	if err != nil {
		t.Fatal(err)
	}
	if back != "466923123456789" {
		t.Fatalf("round trip = %q", back)
	}
}

func TestEncodeBCDRejectsNonDigit(t *testing.T) {
	if err := checkDigits("12a4"); !errors.Is(err, ErrBadDigit) {
		t.Fatalf("err = %v, want ErrBadDigit", err)
	}
}

func TestDecodeBCDRejectsBadNibbles(t *testing.T) {
	cases := [][]byte{
		{0x1A},       // high nibble A mid-value
		{0x0F},       // low nibble filler
		{0xF1, 0x21}, // filler before final octet
	}
	for _, c := range cases {
		if _, err := DecodeBCD(c); !errors.Is(err, ErrBadDigit) {
			t.Errorf("DecodeBCD(% X) err = %v, want ErrBadDigit", c, err)
		}
	}
}

func TestDecodeBCDEmpty(t *testing.T) {
	s, err := DecodeBCD(nil)
	if err != nil || s != "" {
		t.Fatalf("DecodeBCD(nil) = %q, %v", s, err)
	}
}

func TestBCDRoundTripProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		// Map arbitrary bytes to digit strings of length 0..40.
		digits := make([]byte, 0, len(raw)%41)
		for i := 0; i < len(raw) && i < 40; i++ {
			digits = append(digits, '0'+raw[i]%10)
		}
		s := string(digits)
		dec, err := DecodeBCD(packed(s))
		return err == nil && dec == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderBCDRoundTrip(t *testing.T) {
	w := NewWriter(16)
	w.BCD("886912345678")
	w.U8(0x7E)
	r := NewReader(w.Bytes())
	if got := r.BCD(); got != "886912345678" {
		t.Fatalf("BCD = %q", got)
	}
	if got := r.U8(); got != 0x7E {
		t.Fatalf("trailing byte = %#x", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestReaderBCDShort(t *testing.T) {
	r := NewReader([]byte{5, 0x21}) // claims 5 octets, has 1
	_ = r.BCD()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v", r.Err())
	}
}

func TestReaderBCDBadDigitSurfaces(t *testing.T) {
	r := NewReader([]byte{1, 0x1A})
	_ = r.BCD()
	if !errors.Is(r.Err(), ErrBadDigit) {
		t.Fatalf("Err = %v, want ErrBadDigit", r.Err())
	}
}

func TestWriterBCDPanicsOnNonDigit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := NewWriter(0)
	w.BCD("12x")
}

func TestQuickU32RoundTrip(t *testing.T) {
	prop := func(v uint32) bool {
		w := NewWriter(4)
		w.U32(v)
		return NewReader(w.Bytes()).U32() == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBytes16RoundTrip(t *testing.T) {
	prop := func(b []byte) bool {
		if len(b) > 0xFFFF {
			b = b[:0xFFFF]
		}
		w := NewWriter(len(b) + 2)
		w.Bytes16(b)
		got := NewReader(w.Bytes()).Bytes16()
		return bytes.Equal(got, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAliasesWriterBuffer(t *testing.T) {
	// The documented contract: Bytes aliases the internal buffer, so writes
	// after Bytes() can be observed through (or relocate away from) the
	// returned slice. CopyBytes must be immune to that.
	w := NewWriter(8)
	w.U8(1)
	alias := w.Bytes()
	copied := w.CopyBytes()
	w.Reset()
	w.U8(2)
	if alias[0] != 2 {
		t.Fatalf("Bytes did not alias the buffer: alias[0] = %d", alias[0])
	}
	if copied[0] != 1 {
		t.Fatalf("CopyBytes aliased the buffer: copied[0] = %d", copied[0])
	}
}

func TestCopyBytesExactSize(t *testing.T) {
	w := NewWriter(64)
	w.U32(0xAABBCCDD)
	got := w.CopyBytes()
	if len(got) != 4 || cap(got) != 4 {
		t.Fatalf("CopyBytes len/cap = %d/%d, want 4/4", len(got), cap(got))
	}
	if w.Len() != 4 {
		t.Fatalf("CopyBytes must not disturb the writer; Len = %d", w.Len())
	}
}

func TestCopyBytesEmpty(t *testing.T) {
	w := NewWriter(8)
	if got := w.CopyBytes(); got != nil {
		t.Fatalf("CopyBytes on empty writer = %v, want nil", got)
	}
}

func TestTakeDetachesBuffer(t *testing.T) {
	w := NewWriter(8)
	w.U16(0x0102)
	b := w.Take()
	if !bytes.Equal(b, []byte{0x01, 0x02}) {
		t.Fatalf("Take = % X", b)
	}
	if w.Len() != 0 {
		t.Fatalf("writer not empty after Take: Len = %d", w.Len())
	}
	// Writing after Take must not corrupt the taken slice.
	w.U16(0xFFFF)
	if !bytes.Equal(b, []byte{0x01, 0x02}) {
		t.Fatalf("taken slice mutated by later writes: % X", b)
	}
}

func TestGetPutWriterReuse(t *testing.T) {
	w := GetWriter()
	w.U64(42)
	PutWriter(w)
	w2 := GetWriter()
	if w2.Len() != 0 {
		t.Fatalf("pooled writer not reset: Len = %d", w2.Len())
	}
	w2.U8(7)
	if got := w2.Bytes(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("pooled writer wrote % X", got)
	}
	PutWriter(w2)
}

func TestPutWriterDropsOversizedBuffer(t *testing.T) {
	w := GetWriter()
	w.Raw(make([]byte, maxPooledCap+1))
	PutWriter(w)
	// Not observable directly through the pool, but the writer we just
	// returned must have shed its giant buffer.
	if w.buf != nil {
		t.Fatal("oversized buffer retained on Put")
	}
}

func TestWrapAppendsToCallerBuffer(t *testing.T) {
	dst := make([]byte, 0, 16)
	dst = append(dst, 0xEE)
	w := Wrap(dst)
	w.U16(0x1234)
	got := w.Bytes()
	want := []byte{0xEE, 0x12, 0x34}
	if !bytes.Equal(got, want) {
		t.Fatalf("Wrap bytes = % X, want % X", got, want)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Wrap reallocated despite sufficient capacity")
	}
}

func TestReaderReset(t *testing.T) {
	var r Reader
	r.Reset([]byte{0x01})
	_ = r.U32() // force an error
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	r.Reset([]byte{0xAB, 0xCD})
	if r.Err() != nil {
		t.Fatalf("Reset did not clear error: %v", r.Err())
	}
	if got := r.U16(); got != 0xABCD {
		t.Fatalf("U16 after Reset = %#x", got)
	}
}

func TestViewAliasesInput(t *testing.T) {
	src := []byte{1, 2, 3}
	r := NewReader(src)
	v := r.View(2)
	src[0] = 99
	if v[0] != 99 {
		t.Fatal("View must alias the input buffer")
	}
	if r.Remaining() != 1 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestFillCopiesExactly(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	var dst [4]byte
	r.Fill(dst[:])
	if dst != [4]byte{1, 2, 3, 4} {
		t.Fatalf("Fill = %v", dst)
	}
	if r.Remaining() != 1 || r.Err() != nil {
		t.Fatalf("Remaining = %d, Err = %v", r.Remaining(), r.Err())
	}
}

func TestFillShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	var dst [4]byte
	r.Fill(dst[:])
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v, want ErrShortBuffer", r.Err())
	}
	if dst != [4]byte{} {
		t.Fatalf("dst written on short buffer: %v", dst)
	}
}

func TestAddrRoundTrip(t *testing.T) {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("2001:db8::1"),
	}
	w := NewWriter(64)
	for _, a := range addrs {
		w.Addr(a)
	}
	r := NewReader(w.Bytes())
	for _, want := range addrs {
		if got := r.Addr(); got != want {
			t.Errorf("Addr round trip = %v, want %v", got, want)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("Err = %v, Remaining = %d", r.Err(), r.Remaining())
	}
}

func TestAddrRejectsBadLength(t *testing.T) {
	r := NewReader([]byte{3, 1, 2, 3})
	_ = r.Addr()
	if !errors.Is(r.Err(), ErrBadAddr) {
		t.Fatalf("Err = %v, want ErrBadAddr", r.Err())
	}
}

func TestPooledEncodeZeroWriterAllocs(t *testing.T) {
	// The pooled encode pattern: GetWriter + encode + CopyBytes + PutWriter
	// must cost exactly one allocation (the returned copy) at steady state.
	avg := testing.AllocsPerRun(200, func() {
		w := GetWriter()
		w.U32(0xDEADBEEF)
		w.BCD("466923123456789")
		_ = w.CopyBytes()
		PutWriter(w)
	})
	want := 1.0
	if raceEnabled {
		want++ // the BCD field
	}
	if avg > want {
		t.Fatalf("pooled encode allocs/op = %.1f, want <= %.0f", avg, want)
	}
}

func TestReaderValueZeroAlloc(t *testing.T) {
	buf := []byte{0xAB, 0x12, 0x34, 1, 2, 3, 4}
	avg := testing.AllocsPerRun(200, func() {
		var r Reader
		r.Reset(buf)
		_ = r.U8()
		_ = r.U16()
		var dst [4]byte
		r.Fill(dst[:])
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
	if avg != 0 {
		t.Fatalf("value reader allocs/op = %.1f, want 0", avg)
	}
}

func TestBCD2MatchesConcatenation(t *testing.T) {
	cases := []struct{ a, b string }{
		{"466", "92"}, {"466", "920"}, {"", "12345"}, {"12345", ""},
		{"", ""}, {"1", "2"},
	}
	for _, c := range cases {
		var w1, w2 Writer
		w1.BCD(c.a + c.b)
		w2.BCD2(c.a, c.b)
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Errorf("BCD2(%q, %q) = % X, want % X", c.a, c.b, w2.Bytes(), w1.Bytes())
		}
	}
}

func TestBCD2RejectsNonDigits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BCD2 with a non-digit did not panic")
		}
	}()
	var w Writer
	w.BCD2("12", "x4")
}
