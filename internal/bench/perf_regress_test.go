package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"tca/internal/tcanet"
)

// TestPerfBaselineRegression re-runs every engine-performance scenario and
// gates it against the committed BENCH_PERF.json: event counts and queue
// high-water marks must reproduce exactly (they are deterministic),
// allocation rates within ±25%, and throughput against a generous slowdown
// tripwire (default 4×, overridable with TCA_PERF_SLOWDOWN_MAX for noisy
// machines). Regenerate the file with `tcabench -perf-json BENCH_PERF.json`
// when an engine change is deliberate.
func TestPerfBaselineRegression(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PERF.json")
	if err != nil {
		t.Fatalf("committed perf baseline missing: %v", err)
	}
	var want PerfBaseline
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("BENCH_PERF.json: %v", err)
	}
	if want.Schema != PerfBaselineSchema {
		t.Fatalf("baseline schema %q, this tree speaks %q", want.Schema, PerfBaselineSchema)
	}
	slowdownMax := 4.0
	if raceEnabled {
		// The race detector costs ~10-20x; only the host-speed tripwire
		// is affected, so disarm just that gate.
		t.Log("race-instrumented build: throughput tripwire disabled")
		slowdownMax = math.Inf(1)
	}
	if s := os.Getenv("TCA_PERF_SLOWDOWN_MAX"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 1 {
			t.Fatalf("TCA_PERF_SLOWDOWN_MAX=%q: want a float >= 1", s)
		}
		slowdownMax = v
	}
	got := CollectPerfBaseline(tcanet.DefaultParams)
	for _, d := range want.Compare(got, 0.25, slowdownMax) {
		t.Error(d)
	}
}

// Compare checks got against the committed baseline and returns one error
// line per regression. The fields split into three gates:
//
//   - Events and QueueHighWater are products of the deterministic event
//     stream: any difference at all is a model change and must re-baseline.
//   - AllocsPerEvent and AllocBytesPerEvent are host-side but stable across
//     machines for the same binary; they drift only when code changes, so
//     they get a tolerance (allocTol, a fraction, e.g. 0.25 for ±25%).
//   - EventsPerSec varies with the machine, so it only fails when the run
//     is slower than baseline by more than slowdownMax (e.g. 4 means "fail
//     below a quarter of baseline throughput") — a tripwire for
//     catastrophic regressions, not a benchmark.
func (b PerfBaseline) Compare(got PerfBaseline, allocTol, slowdownMax float64) []string {
	var drifts []string
	for _, name := range PerfScenarioNames {
		want, okW := b.Scenarios[name]
		have, okH := got.Scenarios[name]
		if !okW || !okH {
			drifts = append(drifts, fmt.Sprintf("%s: missing from %s", name, map[bool]string{true: "measurement", false: "baseline"}[okW]))
			continue
		}
		if want.Events != have.Events {
			drifts = append(drifts, fmt.Sprintf("%s: events baseline %d, got %d (deterministic — re-baseline if intended)", name, want.Events, have.Events))
		}
		if want.QueueHighWater != have.QueueHighWater {
			drifts = append(drifts, fmt.Sprintf("%s: queue_high_water baseline %d, got %d (deterministic — re-baseline if intended)", name, want.QueueHighWater, have.QueueHighWater))
		}
		checkAlloc := func(field string, w, h float64) {
			// Near-zero baselines gate absolutely: a baseline of 0.01
			// allocs/event must not admit 10× via relative slack.
			const absFloor = 0.05
			if w < absFloor {
				if h > w+absFloor {
					drifts = append(drifts, fmt.Sprintf("%s: %s baseline %g, got %g", name, field, w, h))
				}
				return
			}
			if rel := (h - w) / w; rel > allocTol {
				drifts = append(drifts, fmt.Sprintf("%s: %s baseline %g, got %g (%+.1f%%)", name, field, w, h, 100*rel))
			}
		}
		checkAlloc("allocs_per_event", want.AllocsPerEvent, have.AllocsPerEvent)
		checkAlloc("alloc_bytes_per_event", want.AllocBytesPerEvent, have.AllocBytesPerEvent)
		if want.EventsPerSec > 0 && have.EventsPerSec < want.EventsPerSec/slowdownMax {
			drifts = append(drifts, fmt.Sprintf("%s: events/sec %.0f is over %gx slower than baseline %.0f", name, have.EventsPerSec, slowdownMax, want.EventsPerSec))
		}
	}
	return drifts
}
