package wire

import (
	"fmt"
)

// checkDigits verifies that digits contains only '0'..'9'.
func checkDigits(digits string) error {
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return fmt.Errorf("%w: %q at index %d", ErrBadDigit, digits[i], i)
		}
	}
	return nil
}

// packBCD writes the GSM "swapped nibble" BCD encoding of digits — the form
// of IMSI, MSISDN and called-party digits throughout GSM 04.08 and MAP —
// into out, which must be exactly (len(digits)+1)/2 bytes; an odd-length
// string ends in the filler nibble 0xF, so "12345" packs to 21 43 F5.
// Digits must already be validated.
func packBCD(out []byte, digits string) {
	for i := 0; i < len(digits); i++ {
		nibble := digits[i] - '0'
		if i%2 == 0 {
			out[i/2] = nibble
		} else {
			out[i/2] |= nibble << 4
		}
	}
	if len(digits)%2 == 1 {
		out[len(out)-1] |= 0xF0
	}
}

// DecodeBCD unpacks GSM swapped-nibble BCD back into a digit string. A
// filler nibble (0xF) in the final high nibble terminates an odd-length
// string; a filler anywhere else, or any nibble above 9, is an error.
func DecodeBCD(b []byte) (string, error) {
	var scratch [maxBCDOctets * 2]byte
	digits := scratch[:0]
	if len(b) > maxBCDOctets {
		digits = make([]byte, 0, len(b)*2)
	}
	for i, octet := range b {
		lo := octet & 0x0F
		hi := octet >> 4
		if lo > 9 {
			return "", fmt.Errorf("%w: low nibble %X in octet %d", ErrBadDigit, lo, i)
		}
		digits = append(digits, '0'+lo)
		if hi == 0xF {
			if i != len(b)-1 {
				return "", fmt.Errorf("%w: filler nibble before final octet (octet %d)", ErrBadDigit, i)
			}
			break
		}
		if hi > 9 {
			return "", fmt.Errorf("%w: high nibble %X in octet %d", ErrBadDigit, hi, i)
		}
		digits = append(digits, '0'+hi)
	}
	return string(digits), nil
}

// maxBCDOctets is the longest BCD field decoded on the stack. GSM identity
// and address fields top out well below this (IMSI is 15 digits).
const maxBCDOctets = 32

// BCD appends a one-byte length prefix followed by the BCD encoding of
// digits, packing nibbles directly into the writer's buffer. It panics on
// non-digit input: identity strings are validated at construction by the
// gsmid package, so a bad digit here is a programming error.
func (w *Writer) BCD(digits string) {
	if err := checkDigits(digits); err != nil {
		panic(fmt.Sprintf("wire: BCD(%q): %v", digits, err))
	}
	n := (len(digits) + 1) / 2
	if n > 255 {
		panic(fmt.Sprintf("wire: BCD length %d exceeds 255", n))
	}
	w.U8(uint8(n))
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	packBCD(w.buf[start:], digits)
}

// BCD2 appends a single length-prefixed BCD field holding the digits of a
// followed by the digits of b — identical wire form to BCD(a+b) but packing
// straight across the string boundary, with no concatenation allocation.
func (w *Writer) BCD2(a, b string) {
	if err := checkDigits(a); err != nil {
		panic(fmt.Sprintf("wire: BCD2(%q, %q): %v", a, b, err))
	}
	if err := checkDigits(b); err != nil {
		panic(fmt.Sprintf("wire: BCD2(%q, %q): %v", a, b, err))
	}
	total := len(a) + len(b)
	n := (total + 1) / 2
	if n > 255 {
		panic(fmt.Sprintf("wire: BCD2 length %d exceeds 255", n))
	}
	w.U8(uint8(n))
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, n)...)
	out := w.buf[start:]
	for i := 0; i < total; i++ {
		var d byte
		if i < len(a) {
			d = a[i] - '0'
		} else {
			d = b[i-len(a)] - '0'
		}
		if i%2 == 0 {
			out[i/2] = d
		} else {
			out[i/2] |= d << 4
		}
	}
	if total%2 == 1 {
		out[n-1] |= 0xF0
	}
}

// BCD reads a one-byte length prefix followed by that many BCD octets and
// decodes them to a digit string. The octets are decoded from a view of the
// input, so the only allocation is the returned string itself.
func (r *Reader) BCD() string {
	n := int(r.U8())
	raw := r.view(n)
	if r.err != nil {
		return ""
	}
	s, err := DecodeBCD(raw)
	if err != nil && r.err == nil {
		r.err = err
	}
	return s
}
