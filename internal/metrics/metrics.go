// Package metrics collects latency samples from simulation runs and renders
// the aligned text tables that cmd/vgprs-bench prints for each experiment
// (the EXPERIMENTS.md "measured" columns).
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Series is a named collection of duration samples (for example, "vGPRS MO
// call setup"). The zero value is ready to use. Samples are kept in
// insertion order; order statistics (Max, Percentile) operate
// on a lazily maintained sorted copy, so querying them never reorders the
// series itself.
type Series struct {
	Name    string
	samples []time.Duration
	sorted  []time.Duration // lazily built sorted copy; nil when stale
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = nil
}

// Count returns the number of samples.
func (s *Series) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean, or zero for an empty series.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.samples {
		sum += v
	}
	return sum / time.Duration(len(s.samples))
}

// Max returns the largest sample, or zero for an empty series.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.ensureSorted()
	return sorted[len(sorted)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or zero for an empty series.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.ensureSorted()
	if p <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// ensureSorted returns a sorted copy of the samples, building it on first
// use after an Add. The samples slice itself is never reordered: callers
// iterating the series in insertion order are unaffected by order-statistic
// queries.
func (s *Series) ensureSorted() []time.Duration {
	if s.sorted == nil {
		s.sorted = append(make([]time.Duration, 0, len(s.samples)), s.samples...)
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	return s.sorted
}

// MarshalJSON renders the series as its summary statistics plus the raw
// samples in insertion order, all in nanoseconds of virtual time. This is
// the machine-readable form vgprs-bench -json writes, so perf trajectories
// across revisions can be diffed without parsing text tables.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name    string          `json:"name"`
		Count   int             `json:"count"`
		MeanNS  int64           `json:"mean_ns"`
		P50NS   int64           `json:"p50_ns"`
		P95NS   int64           `json:"p95_ns"`
		MaxNS   int64           `json:"max_ns"`
		Samples []time.Duration `json:"samples_ns"`
	}{
		Name:    s.Name,
		Count:   s.Count(),
		MeanNS:  int64(s.Mean()),
		P50NS:   int64(s.Percentile(50)),
		P95NS:   int64(s.Percentile(95)),
		MaxNS:   int64(s.Max()),
		Samples: s.samples,
	})
}

// Table renders aligned text tables with a title, header row, and data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a data row. Short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				// No padding after the last column: lines carry no
				// trailing whitespace.
				b.WriteString(c)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration rounded to microseconds — the house
// format for measured-latency table cells.
func FormatDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
