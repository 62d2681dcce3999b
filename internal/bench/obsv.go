package bench

import (
	"fmt"

	"tca/internal/stats"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// MeasurePIOLatency measures the one-way PIO store-to-poll latency from
// node src to node dst on a fresh unobserved n-node ring — the reference
// number the traced scenarios must reproduce exactly.
func MeasurePIOLatency(prm tcanet.Params, n, src, dst int) units.Duration {
	return newRig(n, prm).StoreStream(src, dst, 1, pioFlag).EndToEnd
}

// ExtLatencyDist sweeps one-way PIO latency from node 0 to every other
// node of the ring and summarizes the distribution — the tail-latency view
// (p95/p99) alongside the mean, per ring size. Extension experiment.
func ExtLatencyDist(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtLatencyDist",
		Title:   "One-way PIO latency distribution across ring destinations (µs) — extension",
		XLabel:  "nodes",
		Columns: []string{"min", "mean", "median", "p95", "p99", "p999", "max"},
	}
	for _, n := range []int{4, 8, 16} {
		var us []float64
		for dst := 1; dst < n; dst++ {
			us = append(us, MeasurePIOLatency(prm, n, 0, dst).Microseconds())
		}
		s := stats.Summarize(us)
		t.AddRow(fmt.Sprintf("%d", n),
			US(s.Min), US(s.Mean), US(s.Median), US(s.P95), US(s.P99), US(s.P999), US(s.Max))
	}
	t.AddNote("destinations sweep node 1..n-1 from node 0; shortest-arc routing caps the hop count at n/2")
	t.AddNote("the p95/p99 tail is the antipodal distance — ring diameter, not queueing, drives it here")
	return t
}
