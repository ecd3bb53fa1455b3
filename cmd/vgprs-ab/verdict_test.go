package main

import "testing"

// TestJudge pins the verdict rule: at least 9 wins in 10 pairs and a median
// move larger than the base's interquartile range make a gain; the mirror
// image makes a regression; anything short of either is unresolved.
func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name             string
		wins, losses, n  int
		improvement, iqr float64
		want             string
	}{
		{"9/10 past the IQR", 9, 1, 10, 0.5, 0.2, gain},
		{"10/10 past the IQR", 10, 0, 10, 0.5, 0.2, gain},
		{"8/10 past the IQR", 8, 2, 10, 0.5, 0.2, unresolved},
		{"10/10 inside the IQR", 10, 0, 10, 0.1, 0.2, unresolved},
		{"10/10 at the IQR", 10, 0, 10, 0.2, 0.2, unresolved},
		{"9/10 worse past the IQR", 1, 9, 10, -0.5, 0.2, regression},
		{"9/10 worse inside the IQR", 1, 9, 10, -0.1, 0.2, unresolved},
		{"all ties", 0, 0, 10, 0, 0, unresolved},
		{"18/20", 18, 2, 20, 1, 0, gain},
		{"17/20", 17, 3, 20, 1, 0, unresolved},
		{"3/3", 3, 0, 3, 1, 0.5, gain},
		{"2/3", 2, 1, 3, 1, 0.5, unresolved},
		{"no pairs", 0, 0, 0, 1, 0, unresolved},
		// Wins and the median disagreeing in sign is no verdict either way.
		{"wins but median worse", 9, 1, 10, -0.5, 0.2, unresolved},
	} {
		if got := judge(c.wins, c.losses, c.n, c.improvement, c.iqr); got != c.want {
			t.Errorf("%s: judge(%d, %d, %d, %g, %g) = %s, want %s",
				c.name, c.wins, c.losses, c.n, c.improvement, c.iqr, got, c.want)
		}
	}
}

// TestSummarizeOrientsByBetter checks that wins, the improvement and the
// verdict follow each metric's "better" direction, and the quartiles the
// R-7 definition.
func TestSummarizeOrientsByBetter(t *testing.T) {
	decls := []metricDecl{
		{Name: "cpu_us_per_op", Better: "lower"},
		{Name: "ops_per_s", Better: "higher"},
		{Name: "live_heap_mb", Better: "lower"},
	}
	var runs []pair
	for i := 0; i < 10; i++ {
		x := float64(i)
		runs = append(runs, pair{
			Base: result{Metrics: map[string]float64{"cpu_us_per_op": 3 + x/100, "ops_per_s": 300 + x, "live_heap_mb": 1}},
			Head: result{Metrics: map[string]float64{"cpu_us_per_op": 2.5 + x/100, "ops_per_s": 290 + x, "live_heap_mb": 1}},
		})
	}
	got := map[string]metricReport{}
	for _, m := range summarize(decls, runs) {
		got[m.Name] = m
	}
	cpu := got["cpu_us_per_op"]
	if cpu.Wins != 10 || cpu.Verdict != gain {
		t.Errorf("cpu_us_per_op: wins %d, verdict %s; want 10, gain", cpu.Wins, cpu.Verdict)
	}
	if cpu.Base.Median != 3.045 || cpu.Base.Q1 != 3.0225 || cpu.Base.Q3 != 3.0675 {
		t.Errorf("cpu_us_per_op base spread = %+v", cpu.Base)
	}
	if ops := got["ops_per_s"]; ops.Losses != 10 || ops.Verdict != regression || ops.PairedDelta != -10 {
		t.Errorf("ops_per_s: losses %d, verdict %s, paired delta %g; want 10, regression, -10",
			ops.Losses, ops.Verdict, ops.PairedDelta)
	}
	if heap := got["live_heap_mb"]; heap.Wins != 0 || heap.Losses != 0 || heap.Verdict != unresolved {
		t.Errorf("live_heap_mb: %+v, want all ties, unresolved", heap)
	}
}

// TestPastBound pins the exit rule: the command fails only on a regression
// whose median moved toward worse by more than the metric's bound, as a
// share of the base median, in either "better" direction.
func TestPastBound(t *testing.T) {
	for _, c := range []struct {
		name              string
		verdict, better   string
		base, head, bound float64
		want              bool
	}{
		{"regression past the bound", regression, "lower", 2, 2.6, 0.25, true},
		{"regression inside the bound", regression, "lower", 2, 2.4, 0.25, false},
		{"regression at the bound", regression, "lower", 2, 2.5, 0.25, false},
		{"higher-better regression past the bound", regression, "higher", 100, 70, 0.25, true},
		{"higher-better regression inside the bound", regression, "higher", 100, 80, 0.25, false},
		{"unresolved past the bound", unresolved, "lower", 2, 3, 0.25, false},
		{"gain past the bound", gain, "lower", 2, 1, 0.25, false},
		{"zero bound, any regression", regression, "lower", 1, 1.01, 0, true},
	} {
		m := metricReport{
			Better: c.better, Bound: c.bound, Verdict: c.verdict,
			Base: spread{Median: c.base}, Head: spread{Median: c.head}, Delta: c.head - c.base,
		}
		if got := m.pastBound(); got != c.want {
			t.Errorf("%s: pastBound() = %v, want %v", c.name, got, c.want)
		}
	}
}
