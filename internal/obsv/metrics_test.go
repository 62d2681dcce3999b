package obsv

import (
	"testing"

	"tca/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("tlps", "portE")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := reg.Gauge("queue", "dmac")
	g.Set(5)
	g.Add(-2)
	if g.v.Load() != 3 {
		t.Fatalf("gauge = %d, want 3", g.v.Load())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "dmac", []units.Duration{units.Microsecond, 10 * units.Microsecond})
	h.Observe(500 * units.Nanosecond) // bucket 0
	h.Observe(units.Microsecond)      // bucket 0 (inclusive bound)
	h.Observe(5 * units.Microsecond)  // bucket 1
	h.Observe(20 * units.Microsecond) // overflow
	if h.count.Load() != 4 {
		t.Fatalf("count = %d, want 4", h.count.Load())
	}
	hv, ok := refHist(reg.Snapshot(0), lookupID{"lat", "dmac", nil})
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if len(hv.Buckets) != 3 || hv.Buckets[0] != 2 || hv.Buckets[1] != 1 || hv.Buckets[2] != 1 {
		t.Fatalf("buckets = %v, want [2 1 1]", hv.Buckets)
	}
	if hv.SumNS != 500+1000+5000+20000 {
		t.Fatalf("sum_ns = %v, want 26500", hv.SumNS)
	}
}

func TestRegistryDedupe(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("tlps", "portE", Label{Key: "dir", Value: "tx"})
	b := reg.Counter("tlps", "portE", Label{Key: "dir", Value: "tx"})
	if a != b {
		t.Fatal("same identity registered twice returned distinct counters")
	}
	other := reg.Counter("tlps", "portE", Label{Key: "dir", Value: "rx"})
	if other == a {
		t.Fatal("different labels returned the same counter")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x", "c")
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var reg *Registry
	if reg.Counter("x", "c") != nil || reg.Gauge("x", "c") != nil || reg.Histogram("x", "c", nil) != nil {
		t.Fatal("nil registry handed out live metrics")
	}
	snap := reg.Snapshot(7)
	if snap.AtPS != 7 || len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}
	// All disabled operations are allocation-free — the zero-cost guarantee.
	var c *Counter
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(9)
		g.Set(1)
		g.Add(1)
		h.Observe(units.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled metric ops allocate %.1f per run", n)
	}
}

func TestEnabledCounterZeroAlloc(t *testing.T) {
	c := NewRegistry().Counter("x", "c")
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Fatalf("enabled Counter.Inc allocates %.1f per run", n)
	}
}

func TestSnapshotSortedAndLookup(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz", "b").Inc()
	reg.Counter("aa", "b").Add(2)
	reg.Gauge("g", "b").Set(-4)
	snap := reg.Snapshot(100)
	if snap.Counters[0].Name != "aa" || snap.Counters[1].Name != "zz" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if v, ok := snap.Counter("aa", "b"); !ok || v != 2 {
		t.Fatalf("lookup aa = %d, %v", v, ok)
	}
	if v, ok := refGauge(snap, lookupID{"g", "b", nil}); !ok || v != -4 {
		t.Fatalf("lookup g = %d, %v", v, ok)
	}
	if _, ok := snap.Counter("aa", "nope"); ok {
		t.Fatal("lookup of unknown component succeeded")
	}
}

func TestSetNilSafety(t *testing.T) {
	var s *Set
	if s.Registry() != nil || s.Recorder() != nil {
		t.Fatal("nil set handed out live registry/recorder")
	}
	live := NewSet(16)
	if live.Registry() == nil || live.Recorder() == nil {
		t.Fatal("live set missing registry/recorder")
	}
}
