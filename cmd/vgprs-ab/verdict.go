package main

import (
	"fmt"
	"math"
	"slices"
)

// Verdicts.
const (
	gain       = "gain"
	regression = "regression"
	unresolved = "unresolved"
)

// spread is one side's runs of one metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func (s spread) iqr() float64 { return s.Q3 - s.Q1 }

// metricReport is one metric of one workload, both sides.
type metricReport struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Base   spread  `json:"base"`
	Head   spread  `json:"head"`
	// Delta is the head median minus the base median, DeltaPct the same
	// as a share of the base median, and PairedDelta the median of the
	// per-pair differences head - base.
	Delta       float64 `json:"delta"`
	DeltaPct    float64 `json:"delta_pct"`
	PairedDelta float64 `json:"paired_delta"`
	// Wins counts the pairs in which head is strictly better, Losses those
	// in which it is strictly worse, out of N.
	Wins    int    `json:"wins"`
	Losses  int    `json:"losses"`
	N       int    `json:"n"`
	Verdict string `json:"verdict"`
}

func (m metricReport) line(workload string) string {
	return fmt.Sprintf("%-14s %-14s base %-10.4g head %-10.4g %+7.1f %%  wins %2d/%-2d  IQR(base) %-9.3g %s",
		workload, m.Name, m.Base.Median, m.Head.Median, m.DeltaPct, m.Wins, m.N, m.Base.iqr(), m.Verdict)
}

// summarize reports every declared metric the runs carry.
func summarize(decls []metricDecl, runs []pair) []metricReport {
	var out []metricReport
	for _, d := range decls {
		var b, h, diff []float64
		m := metricReport{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		for _, p := range runs {
			bv, okb := p.Base.Metrics[d.Name]
			hv, okh := p.Head.Metrics[d.Name]
			if !okb || !okh {
				continue
			}
			b, h, diff = append(b, bv), append(h, hv), append(diff, hv-bv)
			switch winner(d.Better, hv-bv) {
			case 1:
				m.Wins++
			case -1:
				m.Losses++
			}
		}
		if len(b) == 0 {
			continue
		}
		m.N = len(b)
		m.Base, m.Head = spreadOf(b), spreadOf(h)
		m.Delta = m.Head.Median - m.Base.Median
		if m.Base.Median != 0 {
			m.DeltaPct = 100 * m.Delta / m.Base.Median
		}
		m.PairedDelta = spreadOf(diff).Median
		m.Verdict = judge(m.Wins, m.Losses, m.N, orient(d.Better, m.Delta), m.Base.iqr())
		out = append(out, m)
	}
	return out
}

// orient turns a head-minus-base difference into an improvement: positive
// when head is better for a metric where better is "lower" or "higher".
func orient(better string, d float64) float64 {
	if better == "lower" {
		return -d
	}
	return d
}

// winner is 1 when a head-minus-base difference favours head, -1 when it
// favours base, 0 on a tie.
func winner(better string, d float64) int {
	switch v := orient(better, d); {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// judge is the verdict rule. A change is a gain when head is better in at
// least 90 % of the n pairs and its median beats the base median by more
// than the base's interquartile range (improvement is the difference of
// the medians, positive when head is better); a regression by the same
// rule the other way; anything else is unresolved: the pairs disagree, or
// the move is inside the spread the base shows on its own.
func judge(wins, losses, n int, improvement, baseIQR float64) string {
	switch {
	case n == 0 || math.IsNaN(improvement):
		return unresolved
	case 10*wins >= 9*n && improvement > baseIQR:
		return gain
	case 10*losses >= 9*n && -improvement > baseIQR:
		return regression
	}
	return unresolved
}

// pastBound reports whether m fails the benchmark: its verdict is a
// regression and the head median is worse than the base median by more
// than the bound's share of it. A regression inside the bound is host
// spread the benchmark accepts; a move past the bound that the pairs do
// not agree on is not shown to be the change's.
func (m metricReport) pastBound() bool {
	return m.Verdict == regression && -orient(m.Better, m.Delta) > m.Bound*math.Abs(m.Base.Median)
}

// spreadOf returns the median and quartiles of vs, interpolating between
// order statistics (the R-7 / numpy default definition).
func spreadOf(vs []float64) spread {
	s := slices.Clone(vs)
	slices.Sort(s)
	return spread{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
