package check

import (
	"strings"
	"testing"

	"tca/internal/core"
	"tca/internal/obsv"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// TestLedgerLinkKeysRenderedOrder: link directions come back in the order
// of their rendered "link|dir" strings, which is not tuple order when one
// link name is a prefix of another ('2' sorts before '|').
func TestLedgerLinkKeysRenderedOrder(t *testing.T) {
	l := NewLedger()
	for _, k := range []linkKey{
		{"link:peach2-1.E", "ba"}, {"link:peach2-1.E2", "ab"}, {"link:peach2-1.E", "ab"},
		{"link:peach2-1", "ab"}, {"link:peach2-1.E-x", "ab"},
	} {
		l.LinkBytes(k.link, k.dir, 10)
		l.LinkBytes(k.link, k.dir, 5)
	}
	var got []string
	for _, k := range l.linkKeys() {
		got = append(got, k.link+"|"+k.dir)
		if total := l.LinkTotal(k.link, k.dir); total != 15 {
			t.Errorf("LinkTotal(%s, %s) = %d, want 15", k.link, k.dir, total)
		}
	}
	want := []string{"link:peach2-1.E-x|ab", "link:peach2-1.E2|ab", "link:peach2-1.E|ab", "link:peach2-1.E|ba", "link:peach2-1|ab"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("linkKeys order %v, want %v", got, want)
	}
	if l.LinkTotal("link:peach2-1.E", "xx") != 0 {
		t.Fatal("LinkTotal of an unseen direction is nonzero")
	}
}

// auditedRing runs one host put across a 4-node instrumented ring under
// the ledger and returns what auditFabric needs.
func auditedRing(t *testing.T) (*tcanet.SubCluster, *obsv.Set, *Ledger, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 4, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger()
	set := obsv.NewSet(256)
	set.Led = led
	sc.Instrument(set)
	comm, err := core.NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := comm.AllocHostBuffer(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := comm.AllocHostBuffer(2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := comm.WriteHost(src, 0, fillBytes(3, 0, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := comm.PutToHost(dst, 0, 0, src.Bus, 4096, func(sim.Time) {}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return sc, set, led, eng.Now()
}

func audit(sc *tcanet.SubCluster, set *obsv.Set, led *Ledger, end sim.Time) *Result {
	r := &Result{End: end}
	r.Summary = led.Audit(end)
	r.auditFabric(sc, set, led)
	return r
}

// TestAuditFabricCatchesSkewedRegistry: a registry byte counter that
// disagrees with the link and the ledger raises byte-conservation at that
// link and direction, for every link direction the run used.
func TestAuditFabricCatchesSkewedRegistry(t *testing.T) {
	sc, set, led, end := auditedRing(t)
	if r := audit(sc, set, led, end); len(r.Violations) != 0 {
		t.Fatalf("clean run has violations:\n%s", violationList(r))
	}
	keys := led.linkKeys()
	if len(keys) < 4 {
		t.Fatalf("run touched only %d link directions: %v", len(keys), keys)
	}
	for _, k := range keys {
		sc, set, led, end := auditedRing(t)
		set.Registry().Counter("link_bytes_tx", k.link, obsv.Label{Key: "dir", Value: k.dir}).Add(1)
		r := audit(sc, set, led, end)
		if len(r.Violations) == 0 {
			t.Errorf("skewed %s|%s: no violation", k.link, k.dir)
		}
		for _, v := range r.Violations {
			if v.Rule != "byte-conservation" || v.Where != k.link || !strings.HasPrefix(v.Detail, "dir "+k.dir+":") {
				t.Errorf("skewed %s|%s: unexpected violation %v", k.link, k.dir, v)
			}
		}
	}
}
