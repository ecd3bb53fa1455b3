package gsmid

import "vgprs/internal/slab"

// PackedDigits is a BCD-packed digit string — up to 15 decimal digits in 8
// bytes, the same density as the GSM 04.08 wire form. Nibble 0 (low nibble
// of byte 0) holds the length; digit i lives in nibble i+1. It exists so
// slab-resident subscriber records can hold an IMSI or MSISDN by value
// with no string header and no heap pointer: a million packed identities
// are 8 MB of flat array, invisible to the GC.
//
// The zero value is the empty digit string.
type PackedDigits [8]byte

// PackDigits packs up to 15 decimal digits. Longer strings or non-digit
// bytes return the zero value — identities are validated at parse time, so
// an invalid input here is a programming error surfaced as "empty".
func PackDigits(s string) PackedDigits {
	var p PackedDigits
	if len(s) > 15 || !allDigits(s) {
		return p
	}
	p[0] = byte(len(s))
	for i := 0; i < len(s); i++ {
		nib := i + 1
		d := s[i] - '0'
		p[nib/2] |= d << (4 * uint(nib%2))
	}
	return p
}

// Pack returns the IMSI's packed form.
func (i IMSI) Pack() PackedDigits { return PackDigits(string(i)) }

// Pack returns the MSISDN's packed form.
func (m MSISDN) Pack() PackedDigits { return PackDigits(string(m)) }

// Hash returns a deterministic 64-bit mix of the packed digits, suitable
// for slab index tables.
func (p PackedDigits) Hash() uint64 { return slab.HashBytes8(p) }

// IsZero reports whether p is the empty digit string.
func (p PackedDigits) IsZero() bool { return p == PackedDigits{} }

// Len returns the digit count.
func (p PackedDigits) Len() int { return int(p[0] & 0x0F) }

// Digit returns the i-th digit's ASCII character (0 <= i < Len).
func (p PackedDigits) Digit(i int) byte {
	nib := i + 1
	return '0' + (p[nib/2]>>(4*uint(nib%2)))&0x0F
}

// String unpacks the digits, allocating a fresh string.
func (p PackedDigits) String() string {
	n := p.Len()
	if n == 0 {
		return ""
	}
	var buf [15]byte
	for i := 0; i < n; i++ {
		buf[i] = p.Digit(i)
	}
	return string(buf[:n])
}

// IMSI unpacks the digits as an IMSI.
func (p PackedDigits) IMSI() IMSI { return IMSI(p.String()) }

// MSISDN unpacks the digits as an MSISDN.
func (p PackedDigits) MSISDN() MSISDN { return MSISDN(p.String()) }
