// Package stats provides the small summary-statistics helpers the benchmark
// harness uses for repeated measurements.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
	// P95, P99 and P999 are nearest-rank percentiles — the tail-latency
	// view the latency-distribution benchmarks report alongside the mean.
	// P999 is the production-tail headline (ROADMAP item 3); on samples
	// smaller than 1000 it degrades gracefully to the maximum.
	P95  float64
	P99  float64
	P999 float64
}

// Summarize computes a Summary. It panics on an empty sample — callers
// always measure at least once.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	s.P95 = percentile(sorted, 95)
	s.P99 = percentile(sorted, 99)
	s.P999 = percentile(sorted, 99.9)
	return s
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample: the smallest element with at least p% of the sample at or below
// it. For small samples this degrades gracefully to the maximum.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g max=%.4g mean=%.4g median=%.4g p95=%.4g p99=%.4g p999=%.4g sd=%.4g",
		s.N, s.Min, s.Max, s.Mean, s.Median, s.P95, s.P99, s.P999, s.StdDev)
}

// WriteTable renders the summary as an aligned two-column table — the
// long-form view the percentile-ladder reports embed.
func (s Summary) WriteTable(w io.Writer) {
	rows := []struct {
		k string
		v float64
	}{
		{"min", s.Min}, {"median", s.Median}, {"mean", s.Mean},
		{"p95", s.P95}, {"p99", s.P99}, {"p999", s.P999}, {"max", s.Max},
	}
	fmt.Fprintf(w, "  %-8s %d\n", "n", s.N)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %.4g\n", r.k, r.v)
	}
}
