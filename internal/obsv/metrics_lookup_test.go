package obsv

import (
	"encoding/json"
	"testing"
)

// lookupID is one metric identity a lookup may ask for.
type lookupID struct {
	name, component string
	labels          []Label
}

// lookupRegistry registers identities that defeat naive lookups: one
// component name a prefix of another, label values sharing a prefix, one
// name with and without labels, and the same identity as all three
// metric kinds under different names. Every metric gets a distinct value
// so a lookup that returns the wrong one is caught.
func lookupRegistry() (*Registry, []lookupID) {
	dir := func(v string) []Label { return []Label{{Key: "dir", Value: v}} }
	ids := []lookupID{
		{"link_bytes_tx", "link:peach2-1.E", dir("ab")},
		{"link_bytes_tx", "link:peach2-1.E", dir("ba")},
		{"link_bytes_tx", "link:peach2-1.E2", dir("ab")},
		{"link_bytes_tx", "link:peach2-1.E", nil},
		{"link_bytes_tx", "link:peach2-1", dir("ab")},
		{"tlps", "port", dir("a")},
		{"tlps", "port", dir("ab")},
		{"tlps", "port", []Label{{Key: "dir", Value: "a"}, {Key: "vc", Value: "0"}}},
	}
	reg := NewRegistry()
	for i, id := range ids {
		reg.Counter(id.name, id.component, id.labels...).Add(uint64(100 + i))
		reg.Gauge(id.name+"_level", id.component, id.labels...).Set(int64(-100 - i))
		reg.Histogram(id.name+"_lat", id.component, nil, id.labels...).Observe(0)
		for j := 0; j < i; j++ {
			reg.Histogram(id.name+"_lat", id.component, nil, id.labels...).Observe(0)
		}
	}
	return reg, ids
}

// lookupQueries are every registered identity plus near misses.
func lookupQueries(ids []lookupID) []lookupID {
	qs := append([]lookupID(nil), ids...)
	return append(qs,
		lookupID{"link_bytes_tx", "link:peach2-1.E2", nil},                                     // registered only with labels
		lookupID{"link_bytes_tx", "link:peach2-1.", []Label{{Key: "dir", Value: "ab"}}},        // component prefix
		lookupID{"link_bytes_tx", "link:peach2-1.E22", []Label{{Key: "dir", Value: "ab"}}},     // component extension
		lookupID{"tlps", "port", []Label{{Key: "dir", Value: "abc"}}},                          // label value extension
		lookupID{"tlps", "port", []Label{{Key: "di", Value: "ra"}}},                            // key/value split moved
		lookupID{"tlps", "port", []Label{{Key: "vc", Value: "0"}, {Key: "dir", Value: "a"}}},   // label order matters
		lookupID{"tlps", "port", nil},                                                          // registered only with labels
		lookupID{"tlps", "port|dir=a", nil},                                                    // rendered key spelled out
		lookupID{"missing", "nowhere", nil},                                                    // absent
		lookupID{"link_bytes_tx_level", "link:peach2-1.E", []Label{{Key: "dir", Value: "ab"}}}, // a gauge, not a counter
	)
}

// sameLabels is the reference label comparison: equal length, equal
// pairs in order, nil and empty alike.
func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refCounter, refGauge and refHist are linear reference lookups.
func refCounter(s *Snapshot, q lookupID) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == q.name && c.Component == q.component && sameLabels(c.Labels, q.labels) {
			return c.Value, true
		}
	}
	return 0, false
}

func refGauge(s *Snapshot, q lookupID) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == q.name && g.Component == q.component && sameLabels(g.Labels, q.labels) {
			return g.Value, true
		}
	}
	return 0, false
}

func refHist(s *Snapshot, q lookupID) (uint64, bool) {
	for _, h := range s.Histograms {
		if h.Name == q.name && h.Component == q.component && sameLabels(h.Labels, q.labels) {
			return h.Count, true
		}
	}
	return 0, false
}

// checkSnapshotLookups compares the snapshot's lookups with the reference
// for every query, under each metric kind's name.
func checkSnapshotLookups(t *testing.T, what string, s *Snapshot, queries []lookupID) {
	t.Helper()
	for _, q := range queries {
		gv, gok := s.Counter(q.name, q.component, q.labels...)
		if wv, wok := refCounter(s, q); gv != wv || gok != wok {
			t.Errorf("%s: Counter%v = %d, %v; want %d, %v", what, q, gv, gok, wv, wok)
		}
		gq := lookupID{q.name + "_level", q.component, q.labels}
		gg, gok := s.Gauge(gq.name, gq.component, gq.labels...)
		if wg, wok := refGauge(s, gq); gg != wg || gok != wok {
			t.Errorf("%s: Gauge%v = %d, %v; want %d, %v", what, gq, gg, gok, wg, wok)
		}
		hq := lookupID{q.name + "_lat", q.component, q.labels}
		gh, gok := s.Histogram(hq.name, hq.component, hq.labels...)
		if wc, wok := refHist(s, hq); gh.Count != wc || gok != wok {
			t.Errorf("%s: Histogram%v count = %d, %v; want %d, %v", what, hq, gh.Count, gok, wc, wok)
		}
	}
}

// TestSnapshotLookupsMatchReference checks the snapshot lookups against a
// linear reference on a registry snapshot, on a hand-built snapshot whose
// slices are in no particular order, and on a JSON round-trip (which
// turns empty label sets into nil).
func TestSnapshotLookupsMatchReference(t *testing.T) {
	reg, ids := lookupRegistry()
	queries := lookupQueries(ids)
	snap := reg.Snapshot(0)
	if len(snap.Counters) != len(ids) || len(snap.Gauges) != len(ids) || len(snap.Histograms) != len(ids) {
		t.Fatalf("snapshot has %d/%d/%d metrics, want %d of each",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), len(ids))
	}
	for i, id := range ids {
		if v, ok := snap.Counter(id.name, id.component, id.labels...); !ok || v != uint64(100+i) {
			t.Errorf("Counter%v = %d, %v; want %d", id, v, ok, 100+i)
		}
	}
	checkSnapshotLookups(t, "registry snapshot", snap, queries)

	// Hand-built: reverse every slice so sorted order cannot be assumed.
	hand := &Snapshot{}
	for i := len(snap.Counters) - 1; i >= 0; i-- {
		hand.Counters = append(hand.Counters, snap.Counters[i])
		hand.Gauges = append(hand.Gauges, snap.Gauges[i])
		hand.Histograms = append(hand.Histograms, snap.Histograms[i])
	}
	checkSnapshotLookups(t, "hand-built", hand, queries)
	if v, ok := hand.Counter("tlps", "port", Label{Key: "dir", Value: "ab"}); !ok || v != 106 {
		t.Errorf("hand-built Counter(tlps port dir=ab) = %d, %v; want 106", v, ok)
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	checkSnapshotLookups(t, "JSON round-trip", &decoded, queries)
	if v, ok := decoded.Counter("link_bytes_tx", "link:peach2-1.E"); !ok || v != 103 {
		t.Errorf("decoded unlabeled Counter = %d, %v; want 103", v, ok)
	}
	if v, ok := decoded.Counter("link_bytes_tx", "link:peach2-1.E", []Label{}...); !ok || v != 103 {
		t.Errorf("decoded Counter with empty labels = %d, %v; want 103", v, ok)
	}
}

// TestRegistryCounterValueMatchesReference: the non-registering lookup
// agrees with the snapshot reference and registers nothing.
func TestRegistryCounterValueMatchesReference(t *testing.T) {
	reg, ids := lookupRegistry()
	snap := reg.Snapshot(0)
	for _, q := range lookupQueries(ids) {
		gv, gok := reg.CounterValue(q.name, q.component, q.labels...)
		if wv, wok := refCounter(snap, q); gv != wv || gok != wok {
			t.Errorf("CounterValue%v = %d, %v; want %d, %v", q, gv, gok, wv, wok)
		}
	}
	if after := reg.Snapshot(0); len(after.Counters) != len(snap.Counters) {
		t.Errorf("lookups registered %d counters", len(after.Counters)-len(snap.Counters))
	}
	var nilReg *Registry
	if v, ok := nilReg.CounterValue("x", "y"); ok || v != 0 {
		t.Errorf("nil registry CounterValue = %d, %v", v, ok)
	}
}
