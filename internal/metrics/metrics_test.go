package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesStats(t *testing.T) {
	s := NewSeries("setup")
	for _, v := range []int{10, 20, 30, 40, 50} {
		s.Add(ms(v))
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Mean() != ms(30) {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Max() != ms(50) {
		t.Errorf("Max = %v", s.Max())
	}
	if got := s.Percentile(50); got != ms(30) {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != ms(50) {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != ms(10) {
		t.Errorf("p0 = %v", got)
	}
}

// TestSeriesQueriesPreserveInsertionOrder is the regression test for the
// ensureSorted bug: order statistics used to sort the samples in place,
// silently reordering the series for any caller iterating it afterwards.
func TestSeriesQueriesPreserveInsertionOrder(t *testing.T) {
	inserted := []int{50, 10, 40, 20, 30}
	s := NewSeries("order")
	for _, v := range inserted {
		s.Add(ms(v))
	}
	if s.Percentile(0) != ms(10) || s.Max() != ms(50) || s.Percentile(50) != ms(30) {
		t.Fatalf("stats wrong: min=%v max=%v p50=%v", s.Percentile(0), s.Max(), s.Percentile(50))
	}
	for i, v := range samplesJSON(t, s) {
		if v != ms(inserted[i]) {
			t.Fatalf("samples reordered by order-statistic queries: %v", samplesJSON(t, s))
		}
	}
	// A later Add invalidates the sorted copy.
	s.Add(ms(5))
	if s.Percentile(0) != ms(5) {
		t.Fatalf("min after Add = %v, want 5ms", s.Percentile(0))
	}
	if got := samplesJSON(t, s); got[len(got)-1] != ms(5) {
		t.Fatalf("last sample = %v, want 5ms (insertion order)", got[len(got)-1])
	}
}

// samplesJSON reads the series' samples back from its JSON form, which
// carries them in insertion order.
func samplesJSON(t *testing.T, s *Series) []time.Duration {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Samples []time.Duration `json:"samples_ns"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out.Samples
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series stats must all be zero")
	}
}

func TestSeriesAddAfterSort(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(30))
	_ = s.Percentile(0) // forces sort
	s.Add(ms(10))
	if s.Percentile(0) != ms(10) {
		t.Fatalf("min after post-sort Add = %v", s.Percentile(0))
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		s := NewSeries("p")
		for _, v := range raw {
			s.Add(time.Duration(v) * time.Microsecond)
		}
		last := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := s.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBoundedProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("m")
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		return s.Mean() >= s.Percentile(0) && s.Mean() <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("C1: call setup", "scheme", "mean", "p95")
	tb.AddRow("vGPRS", "120ms", "150ms")
	tb.AddRow("TR 23.923") // short row padded
	out := tb.String()
	if !strings.Contains(out, "C1: call setup") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "vGPRS") {
		t.Errorf("row misordered:\n%s", out)
	}
	// Columns align: header and rows share the first column width.
	if !strings.Contains(lines[1], "scheme") || !strings.Contains(lines[2], "---") {
		t.Errorf("header/separator malformed:\n%s", out)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1234567 * time.Nanosecond); got != "1.235ms" {
		t.Errorf("FormatDuration = %q", got)
	}
}
