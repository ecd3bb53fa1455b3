package slab

// Test-only views of the table layout, for the external tests that fill a
// Table with the nodes' real key types (gsmid imports this package).

// Cap returns the table's cell count.
func (x *Table[K, V]) Cap() int { return len(x.vals) }

// Cap returns the index's cell count.
func (x *RowIndex[K, T]) Cap() int { return x.refs.Cap() }

// ProbeStats returns the mean number of cells a successful lookup reads and
// the longest run of occupied cells, taken around the wrap.
func (x *Table[K, V]) ProbeStats() (mean float64, cluster int) {
	c := uint64(len(x.vals))
	if x.n == 0 {
		return 0, 0
	}
	start := uint64(0) // an empty cell: every run is counted from its head
	for x.vals[start] != 0 {
		start++
	}
	probes, run := uint64(0), 0
	for k := uint64(1); k <= c; k++ {
		i := (start + k) % c
		if x.vals[i] == 0 {
			run = 0
			continue
		}
		if run++; run > cluster {
			cluster = run
		}
		probes += (i+c-x.home(x.keys[i]))%c + 1
	}
	return float64(probes) / float64(x.n), cluster
}
