//go:build race

package vgprs_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation budgets are looser under it.
const raceEnabled = true
