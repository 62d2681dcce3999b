package bench

import (
	"fmt"

	"tca/internal/tcanet"
	"tca/internal/units"
)

// ExtDegradedRing compares one-way PIO latency on a healthy ring against
// the same ring degraded to a line by one cut E/W cable — the price of the
// §V failover mode. The cut is the very cable the 1-hop path 0→1 uses, so
// the degraded path is the worst case: the full (n−1)-hop detour the
// reroute programs. Extension experiment.
func ExtDegradedRing(prm tcanet.Params) *Table {
	t := &Table{
		ID:      "ExtDegradedRing",
		Title:   "One-way PIO latency node0→node1: healthy ring vs 1-cut degraded line (µs) — extension",
		XLabel:  "nodes",
		Columns: []string{"healthy", "degraded", "ratio"},
	}
	for _, n := range []int{4, 8, 16} {
		healthy := MeasurePIOLatency(prm, n, 0, 1)
		degraded := measureDegradedPIO(prm, n, 0, 1, 0)
		t.AddRow(fmt.Sprintf("%d", n),
			US(healthy.Microseconds()), US(degraded.Microseconds()),
			fmt.Sprintf("%.2fx", degraded.Microseconds()/healthy.Microseconds()))
	}
	t.AddNote("cutting cable 0→1 turns the 1-hop eastward path into an (n-1)-hop westward detour")
	t.AddNote("the fabric stays live throughout — §V: a dead cable degrades the ring, it does not partition the hosts")
	return t
}

// measureDegradedPIO is MeasurePIOLatency on a ring whose routes were
// reprogrammed to avoid the cut eastward cable.
func measureDegradedPIO(prm tcanet.Params, n, src, dst, cut int) units.Duration {
	r := newRig(n, prm)
	if err := r.sc.RerouteAvoidingCut(cut); err != nil {
		panic(err)
	}
	return r.StoreStream(src, dst, 1, pioFlag).EndToEnd
}

// CheckDegradedRing verifies the degraded mode works and costs what the
// detour geometry predicts: strictly slower than healthy, increasingly so
// as the ring grows.
func CheckDegradedRing(t *Table) error {
	prev := 0.0
	for _, r := range t.Rows {
		h := t.mustVal(r.X, "healthy")
		d := t.mustVal(r.X, "degraded")
		if d <= h {
			return fmt.Errorf("ExtDegradedRing: degraded %.3f µs not above healthy %.3f µs at n=%s", d, h, r.X)
		}
		if ratio := d / h; ratio <= prev {
			return fmt.Errorf("ExtDegradedRing: detour penalty %.2fx at n=%s did not grow with ring size", ratio, r.X)
		} else {
			prev = ratio
		}
	}
	return nil
}
