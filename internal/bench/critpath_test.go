package bench

import (
	"math"
	"testing"

	"tca/internal/obsv/critpath"
	"tca/internal/tcanet"
)

// TestFleetPingPongBudgetsConsistent is the ISSUE 7 acceptance gate for the
// ping-pong scenario: every leg's per-bucket budget sums tick-exactly to its
// end-to-end latency with nothing unattributed, and the ring never evicts.
func TestFleetPingPongBudgetsConsistent(t *testing.T) {
	f := pingPongFleet(t, 4, 0, 2, 4)
	if got := len(f.Budgets); got != 8 {
		t.Fatalf("fleet has %d legs, want 8", got)
	}
	if f.Evicted != 0 {
		t.Fatalf("span ring evicted %d events; budgets would be truncated", f.Evicted)
	}
	for _, b := range f.Budgets {
		if b.Total <= 0 {
			t.Fatalf("txn %d: nonpositive end-to-end latency %v", b.Txn, b.Total)
		}
		if !b.Consistent() {
			t.Errorf("txn %d: buckets sum to %v, end-to-end %v, unattributed %v",
				b.Txn, b.Sum(), b.Total, b.Buckets[critpath.BucketUnattributed])
		}
	}
	if !f.Consistent() {
		t.Fatalf("fleet inconsistent")
	}
	// The traced first leg must reproduce the uninstrumented reference
	// latency exactly — instrumentation never perturbs the simulation.
	ref := MeasurePIOLatency(tcanet.DefaultParams, 4, 0, 2)
	if f.Budgets[0].Total != ref {
		t.Fatalf("first leg total %v != reference PIO latency %v", f.Budgets[0].Total, ref)
	}
}

// TestFleetPingPongLadder checks the percentile ladder over the fleet.
func TestFleetPingPongLadder(t *testing.T) {
	f := pingPongFleet(t, 4, 0, 2, 4)
	l := f.Ladder
	if l.N != 8 {
		t.Fatalf("ladder over %d samples, want 8", l.N)
	}
	if l.P999 <= 0 {
		t.Fatalf("p999 = %g, want > 0", l.P999)
	}
	if l.Median > l.P95 || l.P95 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max {
		t.Fatalf("ladder not monotone: %+v", l)
	}
}

// TestFleetDMAChainsBudgetsConsistent is the acceptance gate for the
// chain-DMA scenario: doorbell through completion IRQ, per-bucket sums
// tick-exact for every chain.
func TestFleetDMAChainsBudgetsConsistent(t *testing.T) {
	r := observedRig(t, 2, Attach{})
	res := r.ChainDMA(Chain{Dst: 1, Size: 4096, Count: 8, Chains: 4})
	f := critpath.Analyze("chain-DMA", r.Set.Recorder(), res.Txns)
	if got := len(f.Budgets); got != 4 {
		t.Fatalf("fleet has %d chains, want 4", got)
	}
	if f.Evicted != 0 {
		t.Fatalf("span ring evicted %d events; budgets would be truncated", f.Evicted)
	}
	for _, b := range f.Budgets {
		if !b.Consistent() {
			t.Errorf("txn %d: buckets sum to %v, end-to-end %v, unattributed %v",
				b.Txn, b.Sum(), b.Total, b.Buckets[critpath.BucketUnattributed])
		}
		if b.Buckets[critpath.BucketDMAEngine] <= 0 {
			t.Errorf("txn %d: DMA chain charged no dma-engine time", b.Txn)
		}
	}
	// A multi-descriptor chain serializes on the issue pipeline. The wait
	// overlaps the chain's own streaming traffic so the critical-path
	// charge may collapse to a tail, but the observed enter/exit pair must
	// register in the queue-wait attribution.
	if f.WaitTotals[critpath.BucketWaitChainSer] <= 0 {
		t.Errorf("no observed wait:chain-serialization across the fleet (WaitTotals %v)",
			f.WaitTotals)
	}
	// Descriptor fetch goes through the host root complex as a device read.
	if f.WaitTotals[critpath.BucketWaitRead] <= 0 {
		t.Errorf("no observed wait:outstanding-read for descriptor fetch")
	}
}

// TestPingPongModelComparator checks the analytical comparator: the
// measured fleet must land near the model built from the gated Fig. 10
// numbers.
func TestPingPongModelComparator(t *testing.T) {
	m := PingPongModel(tcanet.DefaultParams)
	if m.MinPingPongUS <= 0 || m.PerHopNS <= 0 {
		t.Fatalf("degenerate model %+v", m)
	}
	f := pingPongFleet(t, 4, 0, 2, 4)
	diffs := m.CompareFleet(f, RingForwardHops(4, 0, 2))
	if len(diffs) == 0 {
		t.Fatalf("comparator returned no rows")
	}
	for _, d := range diffs {
		if math.Abs(d.DiffPct) > 10 {
			t.Errorf("%s: predicted %.4f us, measured %.4f us (%+.2f%% > 10%%)",
				d.Name, d.PredictedUS, d.MeasuredUS, d.DiffPct)
		}
	}
}

func TestRingForwardHops(t *testing.T) {
	cases := []struct{ n, src, dst, want int }{
		{4, 0, 1, 0},
		{4, 0, 2, 1},
		{4, 0, 3, 0},
		{8, 0, 4, 3},
		{8, 2, 7, 2},
		{16, 0, 8, 7},
	}
	for _, c := range cases {
		if got := RingForwardHops(c.n, c.src, c.dst); got != c.want {
			t.Errorf("RingForwardHops(%d, %d, %d) = %d, want %d", c.n, c.src, c.dst, got, c.want)
		}
	}
}
