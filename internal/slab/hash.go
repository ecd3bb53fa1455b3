package slab

import "encoding/binary"

// Deterministic hash functions for Index keys. These are fixed (unseeded)
// on purpose: a run is reproducible from its seed alone, so a table's layout
// — its iteration order and probe lengths, functions of hash values — must
// be the same in every run. The simulator is a closed world; HashDoS is not
// in the threat model.

// HashString is 64-bit FNV-1a over the string bytes.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// HashUint64 is the splitmix64 finalizer — a cheap full-avalanche mix for
// integer keys (TLLIs, TIDs, packed identities).
func HashUint64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// HashUint32 mixes a 32-bit key (TMSI, P-TMSI, TLLI).
func HashUint32(v uint32) uint64 { return HashUint64(uint64(v)) }

// HashBytes8 mixes an 8-byte value such as a BCD-packed identity.
func HashBytes8(b [8]byte) uint64 {
	return HashUint64(binary.LittleEndian.Uint64(b[:]))
}
