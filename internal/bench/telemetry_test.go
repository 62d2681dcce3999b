package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tca/internal/obsv"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// TestTelemetryForwardAttribution drives the canonical link-bound scenario
// — a 255×4 KiB chain node0→node2 across a 4-node ring — and checks that
// attribution names the source chip's egress ring link as saturated.
func TestTelemetryForwardAttribution(t *testing.T) {
	r := observedRig(t, 4, Attach{Interval: units.Microsecond})
	r.ChainDMA(Chain{Dst: 2, Size: 4096, Count: 255})
	tl := r.Set.Sampler().Timeline()
	rep := obsv.Attribute(r.Snapshot(), tl)
	if rep == nil || rep.Primary.Verdict != obsv.VerdictLinkBound {
		t.Fatalf("verdict = %+v, want link-bound", rep)
	}
	// Both ring hops on the node0→node2 arc (peach2-0.E and peach2-1.E)
	// carry every TLP and saturate together; attribution may name either.
	if !strings.Contains(rep.Primary.Resource, "link:peach2-0.E") &&
		!strings.Contains(rep.Primary.Resource, "link:peach2-1.E") {
		t.Errorf("resource = %q, want a ring link on the node0->node2 arc", rep.Primary.Resource)
	}
	var util float64
	for _, ev := range rep.Primary.Evidence {
		if strings.HasPrefix(ev.Series, "link_util") && ev.Stat == "active-mean" {
			util = ev.Value
		}
	}
	if util < 90 {
		t.Errorf("saturated link active-mean utilization = %.1f%%, want >= 90%%", util)
	}
	if tl.Find("link_util", "link:peach2-0.E", "ab") == nil {
		t.Error("timeline is missing the link_util series for the saturated link")
	}
	// The destination chip's DMAC never runs — the downstream-idle half of
	// the link-bound evidence.
	if s := tl.Find("dma_busy", "peach2-2/dmac", ""); s == nil || s.ActiveMean() != 0 {
		t.Errorf("destination DMAC should idle, series = %v", s)
	}
}

// TestTelemetryPingPongUnderutilized checks the contrast case: one 8-byte
// flag in flight at a time saturates nothing.
func TestTelemetryPingPongUnderutilized(t *testing.T) {
	r := observedRig(t, 4, Attach{Interval: units.Microsecond})
	res := pingPong(t, r, 0, 2, 20)
	if v := obsv.Attribute(r.Snapshot(), r.Set.Sampler().Timeline()).Primary.Verdict; v != obsv.VerdictUnderutilized {
		t.Fatalf("verdict = %v, want underutilized", v)
	}
	if res.EndToEnd <= 0 {
		t.Fatal("ping-pong recorded no elapsed time")
	}
}

// TestForwardPerfettoTraceValid exports a sampled chain's trace, as
// tcatrace -view top -perfetto writes it, and validates it against the
// Chrome trace_event schema: a traceEvents array with duration slices for
// the DMA span, counter samples for the telemetry series, and nothing
// malformed.
func TestForwardPerfettoTraceValid(t *testing.T) {
	r := observedRig(t, 4, Attach{Interval: units.Microsecond})
	r.ChainDMA(Chain{Dst: 2, Size: 4096, Count: 16})
	var buf bytes.Buffer
	if err := obsv.WritePerfetto(&buf, r.Set.Recorder().Events(), r.Set.Sampler().Timeline()); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var slices, counters int
	for i, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		if name, _ := ev["name"].(string); name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d missing numeric ts: %v", i, ev)
		}
		switch ph {
		case "X":
			slices++
			if d, _ := ev["dur"].(float64); d <= 0 {
				t.Errorf("X slice with non-positive dur: %v", ev)
			}
		case "C":
			counters++
		}
	}
	if slices == 0 {
		t.Error("trace has no duration slices — the DMA span is missing")
	}
	if counters == 0 {
		t.Error("trace has no counter events — the telemetry series are missing")
	}
}

// TestTelemetryDoesNotPerturbTiming reruns the forward scenario with no
// instrumentation and no sampler and requires the identical completion
// time — probes observe, they never reserve.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	c := Chain{Dst: 2, Size: 4096, Count: 64}
	res := observedRig(t, 4, Attach{Interval: units.Microsecond}).ChainDMA(c)
	bare := newRig(4, tcanet.DefaultParams).ChainDMA(c)
	if bare.EndToEnd != res.EndToEnd {
		t.Errorf("instrumented run finished at %v, bare run at %v — telemetry perturbed the simulation",
			res.EndToEnd, bare.EndToEnd)
	}
}
