package tcad

import (
	"tca/internal/obsv"
	"tca/internal/units"
)

// jobLatencyBounds spans the daemon's host-side job latencies: a cached
// sweep renders in microseconds, a budgeted soak scenario can take tens
// of seconds.
var jobLatencyBounds = []units.Duration{
	1 * units.Millisecond,
	5 * units.Millisecond,
	25 * units.Millisecond,
	100 * units.Millisecond,
	500 * units.Millisecond,
	2 * units.Second,
	10 * units.Second,
	60 * units.Second,
}

// metrics is the daemon's self-observation surface, registered on the
// Config.Registry so /metrics serves it through the standard obsv
// exporters alongside any simulation metrics.
type metrics struct {
	submitted   *obsv.Counter
	started     *obsv.Counter
	succeeded   *obsv.Counter
	failed      *obsv.Counter
	quarantined *obsv.Counter

	shedFull     *obsv.Counter
	shedDraining *obsv.Counter

	cacheHits      *obsv.Counter
	cacheMisses    *obsv.Counter
	verifyRuns     *obsv.Counter
	verifyFailures *obsv.Counter

	queueDepth [laneCount]*obsv.Gauge
	inflight   *obsv.Gauge

	jobLatency *obsv.Histogram
}

func newMetrics(reg *obsv.Registry) *metrics {
	const comp = "tcad"
	m := &metrics{
		submitted:   reg.Counter("tcad_jobs_submitted", comp),
		started:     reg.Counter("tcad_jobs_started", comp),
		succeeded:   reg.Counter("tcad_jobs_succeeded", comp),
		failed:      reg.Counter("tcad_jobs_failed", comp),
		quarantined: reg.Counter("tcad_jobs_quarantined", comp),

		shedFull:     reg.Counter("tcad_jobs_shed", comp, obsv.Label{Key: "reason", Value: "queue-full"}),
		shedDraining: reg.Counter("tcad_jobs_shed", comp, obsv.Label{Key: "reason", Value: "draining"}),

		cacheHits:      reg.Counter("tcad_cache_hits", comp),
		cacheMisses:    reg.Counter("tcad_cache_misses", comp),
		verifyRuns:     reg.Counter("tcad_cache_verify_runs", comp),
		verifyFailures: reg.Counter("tcad_cache_verify_failures", comp),

		inflight:   reg.Gauge("tcad_jobs_inflight", comp),
		jobLatency: reg.Histogram("tcad_job_latency", comp, jobLatencyBounds),
	}
	for pri := Priority(0); pri < laneCount; pri++ {
		m.queueDepth[pri] = reg.Gauge("tcad_queue_depth", comp, obsv.Label{Key: "lane", Value: pri.String()})
	}
	return m
}

// hostDur converts a host-clock nanosecond delta into the obsv duration
// unit (picoseconds) for histogram observation.
func hostDur(ns int64) units.Duration {
	return units.Duration(ns) * units.Nanosecond
}
