package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"tca/internal/coll"
	"tca/internal/core"
	"tca/internal/solver"
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

// TestAllShiftQueueDepth is the deep-queue tripwire. The 16-node all-shift
// of ExtRingScaling issues 16 concurrent 255×4 KiB chains, over 65,000
// write TLPs, yet the engine heap must stay O(components) deep: only the
// next event of each DMAC's issue stream and of each link direction's
// arrivals is queued, so the peak follows the ring size, not the chain
// length. The depth is deterministic, so this gate holds on hosts too
// noisy for a timing gate.
func TestAllShiftQueueDepth(t *testing.T) {
	const nodes, perNode = 16, 32
	r := newRig(nodes, tcanet.DefaultParams)
	r.allShift(4096, 255)
	hw := r.eng.QueueHighWater()
	t.Logf("16-node all-shift peak queue depth %d (%.1f per node)", hw, float64(hw)/nodes)
	if hw > perNode*nodes {
		t.Fatalf("16-node all-shift queued %d events at its peak, over %d per node", hw, perNode)
	}
}

// TestCGSolveEventsPerIteration is the flag-poll fan-out tripwire. Every
// halo exchange and every allreduce re-polls the same per-node flag words;
// each range keeps one poller, so a flag write wakes one poll loop and a
// solve's event count grows linearly with its iterations. Were re-polls to
// stack pollers, every write would wake one loop per earlier call: the
// 8-node, 64-row ExtCGSolve solve then costs 22,825 events per iteration
// instead of 7,936. The count is deterministic.
func TestCGSolveEventsPerIteration(t *testing.T) {
	const nodes, N, maxPerIter = 8, 64, 10000
	r := newRig(nodes, tcanet.DefaultParams)
	comm := r.comm()
	comm.SetMode(core.Pipelined)
	cc, err := coll.New(comm)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := solver.New(comm, cc, N)
	if err != nil {
		t.Fatal(err)
	}
	// The right-hand side ExtCGSolve uses: b = A·x* for x*[i] = cos(0.29 i).
	b := make([]float64, N)
	for i := range b {
		b[i] = 2 * math.Cos(0.29*float64(i))
		if i > 0 {
			b[i] -= math.Cos(0.29 * float64(i-1))
		}
		if i < N-1 {
			b[i] -= math.Cos(0.29 * float64(i+1))
		}
	}
	if err := cg.SetB(b); err != nil {
		t.Fatal(err)
	}
	var st solver.Stats
	cg.Solve(1e-10, 10*N, func(s solver.Stats) { st = s })
	r.eng.Run()
	if st.Iterations == 0 {
		t.Fatal("CG did not iterate")
	}
	perIter := float64(r.eng.Executed()) / float64(st.Iterations)
	t.Logf("%d-node N=%d solve: %d events over %d iterations, %.0f per iteration",
		nodes, N, r.eng.Executed(), st.Iterations, perIter)
	if perIter > maxPerIter {
		t.Fatalf("%.0f events per CG iteration, over %d: flag pollers are fanning out", perIter, maxPerIter)
	}
}
