//go:build race

package sigmap

// raceEnabled reports whether the race detector is compiled in. The race
// build compiles append(buf, make([]byte, n)...), which is how
// wire.Writer.BCD reserves a field, as a real allocation of the temporary
// slice, so there every BCD field an encode writes costs one allocation.
const raceEnabled = true
