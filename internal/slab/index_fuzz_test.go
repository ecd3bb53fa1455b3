package slab

import "testing"

// fuzzPrefill is how many sequential keys one unit of a script's first byte
// puts in the table before the script runs: byte 48 leaves the table one Put
// short of its first growth by half (3,072 of 4,096 cells), byte 72 one short
// of the second (4,608 of 6,144), byte 255 four steps past the taper.
const fuzzPrefill = 64

// runIndexScript decodes bytes into a Put/Delete/Get history against the map
// model: one prefill byte, then three bytes per operation — the verb, and a
// 16-bit key that overlaps the prefilled range so a script can pull entries
// out of the middle of the clusters the prefill built.
func runIndexScript(t *testing.T, script []byte) {
	m := newIndexModel(t)
	if len(script) > 0 {
		for k := 0; k < int(script[0])*fuzzPrefill; k++ {
			m.put(uint32(k), Handle(k+1))
		}
		script = script[1:]
	}
	for ; len(script) >= 3; script = script[3:] {
		k := uint32(script[1])<<8 | uint32(script[2])
		switch script[0] % 3 {
		case 0:
			m.put(k, Handle(uint64(script[0])<<32|uint64(k)+1))
		case 1:
			m.del(k)
		case 2:
			m.get(k)
		}
	}
	m.sweep()
}

// FuzzIndexAgainstMap looks for a history on which the table and a map
// disagree — a lost or resurrected key after a backward shift, a Range that
// skips or repeats an entry, a Len that drifts — on either side of the taper.
// The committed corpus under testdata/fuzz holds the scripts that start next
// to a growth step.
func FuzzIndexAgainstMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 1, 0, 1, 2, 0, 1, 1, 0, 2, 2, 0, 2})
	f.Fuzz(runIndexScript)
}
