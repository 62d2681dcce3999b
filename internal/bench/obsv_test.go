package bench

import (
	"sync"
	"testing"

	"tca/internal/obsv"
	"tca/internal/tcanet"
)

// The traced forward's hop sum must equal the end-to-end latency the
// uninstrumented rig measures for the same configuration — the
// self-consistency acceptance criterion, for both a 1-hop and a 2-hop path.
func TestTraceForwardSelfConsistency(t *testing.T) {
	prm := tcanet.DefaultParams
	for _, tc := range []struct {
		name        string
		n, src, dst int
	}{
		{"1hop", 2, 0, 1},
		{"2hop", 4, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := observedRig(t, tc.n, Attach{})
			res := r.StoreStream(tc.src, tc.dst, 1, pioFlag)
			spans := r.Spans(res.Txns)
			if len(spans) != 1 {
				t.Fatalf("spans = %d, want 1", len(spans))
			}
			sp := spans[0]
			if len(sp.Events) < 4 {
				t.Fatalf("only %d events recorded: %v", len(sp.Events), sp.Events)
			}
			if got := sp.Events[0].Stage; got != obsv.StageCPUStore {
				t.Errorf("first stage = %v, want cpu-store", got)
			}
			if got := sp.Events[len(sp.Events)-1].Stage; got != obsv.StagePollSeen {
				t.Errorf("last stage = %v, want poll-seen", got)
			}
			if sp.Total != res.EndToEnd {
				t.Errorf("hop sum %v != traced end-to-end %v", sp.Total, res.EndToEnd)
			}
			ref := MeasurePIOLatency(prm, tc.n, tc.src, tc.dst)
			if res.EndToEnd != ref {
				t.Errorf("instrumented latency %v != uninstrumented reference %v — observability perturbed timing", res.EndToEnd, ref)
			}
		})
	}
}

// The two ping-pong legs' hop sums must add up to the round trip.
func TestTracePingPongLegsSumToRoundTrip(t *testing.T) {
	r := observedRig(t, 4, Attach{})
	res := pingPong(t, r, 0, 2, 1)
	spans := r.Spans(res.Txns)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2 (ping+pong)", len(spans))
	}
	ping, pong := spans[0], spans[1]
	if sum := ping.Total + pong.Total; sum != res.EndToEnd {
		t.Errorf("ping %v + pong %v = %v != round trip %v", ping.Total, pong.Total, sum, res.EndToEnd)
	}
	if ping.Total != MeasurePIOLatency(tcanet.DefaultParams, 4, 0, 2) {
		t.Errorf("ping leg %v != one-way reference", ping.Total)
	}
}

// A traced DMA chain's span runs doorbell → chain-done and stays within the
// driver-observed completion time.
func TestTraceDMASpan(t *testing.T) {
	r := observedRig(t, 2, Attach{})
	res := r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 8, Stride: 8192})
	spans := r.Spans(res.Txns)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Txn == 0 {
		t.Fatal("chain transaction ID is zero — DMAC did not begin a traced chain")
	}
	if got := sp.Events[0].Stage; got != obsv.StageDoorbell {
		t.Errorf("first stage = %v, want doorbell", got)
	}
	if got := sp.Events[len(sp.Events)-1].Stage; got != obsv.StageChainDone {
		t.Errorf("last stage = %v, want chain-done", got)
	}
	var sawFetch, sawIssue, sawAck, sawIRQ bool
	for _, ev := range sp.Events {
		switch ev.Stage {
		case obsv.StageDMAFetch:
			sawFetch = true
		case obsv.StageDMAIssue:
			sawIssue = true
		case obsv.StageFlushAck:
			sawAck = true
		case obsv.StageIRQ:
			sawIRQ = true
		}
	}
	if !sawFetch || !sawIssue || !sawAck || !sawIRQ {
		t.Errorf("missing stages (fetch=%v issue=%v ack=%v irq=%v): %v",
			sawFetch, sawIssue, sawAck, sawIRQ, sp.Events)
	}
	if sp.Total <= 0 || sp.Total > res.EndToEnd {
		t.Errorf("span total %v outside (0, %v]", sp.Total, res.EndToEnd)
	}
	// The chain histogram recorded exactly one observation.
	var h obsv.HistogramVal
	ok := false
	for _, hv := range r.Snapshot().Histograms {
		if hv.Name == "dma_chain_latency" && hv.Component == "peach2-0/dmac" {
			h, ok = hv, true
		}
	}
	if !ok || h.Count != 1 {
		t.Errorf("dma_chain_latency count = %+v ok=%v, want exactly 1", h, ok)
	}
}

// One store from node 0 to node 2 on a 4-node ring must touch exactly the
// east-route ports: chip0 N-in/E-out, chip1 W-in/E-out, chip2 W-in/N-out,
// and nothing on chip3 — the port-counter acceptance criterion.
func TestForwardPortCounters(t *testing.T) {
	r := observedRig(t, 4, Attach{})
	r.StoreStream(0, 2, 1, pioFlag)
	snap := r.Snapshot()
	port := func(v string) obsv.Label { return obsv.Label{Key: "port", Value: v} }
	expect := map[string]map[string]uint64{
		"peach2-0": {"in:N": 1, "out:E": 1},
		"peach2-1": {"in:W": 1, "out:E": 1},
		"peach2-2": {"in:W": 1, "out:N": 1},
		"peach2-3": {},
	}
	for chip, want := range expect {
		for _, p := range []string{"N", "E", "W", "S"} {
			for _, dir := range []string{"in", "out"} {
				name := "port_tlps_" + dir
				got, ok := snap.Counter(name, chip, port(p))
				if !ok {
					t.Fatalf("%s %s{port=%s} not in snapshot", chip, name, p)
				}
				if got != want[dir+":"+p] {
					t.Errorf("%s %s{port=%s} = %d, want %d", chip, name, p, got, want[dir+":"+p])
				}
			}
		}
	}
}

// Metrics snapshots must be safe to take from another goroutine while
// RunParallel drives independent engines and a shared instrumented rig keeps
// registering and updating metrics — run under -race in CI.
func TestSnapshotDuringParallelRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep is slow")
	}
	prm := tcanet.DefaultParams
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r := mustRig(4, prm, Attach{Obsv: true})
				r.StoreStream(0, 2, 1, pioFlag)
				if snap := r.Set.Registry().Snapshot(0); len(snap.Counters) == 0 {
					t.Error("empty snapshot from instrumented rig")
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		exps := []Experiment{
			mustFind(t, "LatencyPIO"),
			mustFind(t, "Fig9"),
		}
		RunParallel(prm, exps)
		close(stop)
	}()
	wg.Wait()
}

func mustFind(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

// ExtLatencyDist's tails must be ordered and its p99 must equal the
// antipodal one-way latency (the distribution's max for a symmetric ring).
func TestExtLatencyDist(t *testing.T) {
	tab := ExtLatencyDist(tcanet.DefaultParams)
	for _, n := range []string{"4", "8", "16"} {
		p95 := tab.mustVal(n, "p95")
		p99 := tab.mustVal(n, "p99")
		max := tab.mustVal(n, "max")
		mean := tab.mustVal(n, "mean")
		if !(mean <= p95 && p95 <= p99 && p99 <= max) {
			t.Errorf("n=%s: tail ordering violated: mean=%v p95=%v p99=%v max=%v", n, mean, p95, p99, max)
		}
	}
}

// Disabled observability must cost nothing: every nil-receiver hook on the
// TLP forward path is allocation-free.
func TestDisabledObservabilityAllocs(t *testing.T) {
	var c *obsv.Counter
	var g *obsv.Gauge
	var h *obsv.Histogram
	var rec *obsv.Recorder
	var reg *obsv.Registry
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(64)
		g.Set(3)
		h.Observe(1000)
		rec.Record(obsv.Event{})
		if rec.NextTxn() != 0 {
			t.Fatal("nil recorder allocated a txn")
		}
		if reg.Counter("x", "y") != nil {
			t.Fatal("nil registry returned a counter")
		}
	}); n != 0 {
		t.Errorf("disabled-path hooks allocate %.1f per run, want 0", n)
	}
}

// The tcabench -metrics workload — a 2-hop PIO store, then a 16×4 KiB
// chain — must produce a populated snapshot on one observed rig.
func TestMetricsReport(t *testing.T) {
	r := observedRig(t, 4, Attach{})
	r.StoreStream(0, 2, 1, pioFlag)
	r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 16})
	snap := r.Snapshot()
	if v, ok := snap.Counter("dma_chains", "peach2-0/dmac"); !ok || v != 1 {
		t.Errorf("dma_chains = %d ok=%v, want 1", v, ok)
	}
	if v, ok := snap.Counter("driver_chains", "node0/driver"); !ok || v != 1 {
		t.Errorf("driver_chains = %d ok=%v, want 1", v, ok)
	}
	if v, ok := snap.Counter("port_tlps_in", "peach2-1", obsv.Label{Key: "port", Value: "W"}); !ok || v == 0 {
		t.Errorf("peach2-1 W in = %d ok=%v, want nonzero", v, ok)
	}
}
