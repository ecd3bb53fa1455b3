//go:build race

package txn

// raceEnabled reports whether the race detector is compiled in: its
// bookkeeping shows up in HeapAlloc, so heap-size assertions are skipped.
const raceEnabled = true
