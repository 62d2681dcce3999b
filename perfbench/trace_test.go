package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	tr := &tracer{counts: map[string]int64{}}
	tr.spans = []span{
		{Name: "root", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0}, // overlaps a
		{Name: "c", StartNS: 70, EndNS: 80, Parent: 0},
		{Name: "a.child", StartNS: 15, EndNS: 20, Parent: 1},
		{Name: "open", StartNS: 90, EndNS: -1, Parent: 0}, // never closed: ignored
	}
	if got := tr.coverage(0); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("coverage = %v, want 0.6 (children cover 10..60 and 70..80)", got)
	}
	want := map[string]float64{"root": 40e-6, "a": 25e-6, "b": 30e-6, "c": 10e-6, "a.child": 5e-6}
	for _, r := range tr.selfTimes() {
		if w, ok := want[r.Name]; !ok || math.Abs(r.SelfMS-w) > 1e-12 {
			t.Errorf("self time of %s = %v ms, want %v", r.Name, r.SelfMS, w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("root", -1, -1), 0, func() { ran = true })
	tr.count("n", 1)
	if !ran {
		t.Fatal("nil tracer did not run the traced call")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no data is not 0")
	}
}
