package bench

import (
	"testing"

	"tca/internal/obsv/critpath"
	"tca/internal/prof"
	"tca/internal/tcanet"
	"tca/internal/units"
)

// observedRig builds an n-node rig with an observability set plus the
// given attachments.
func observedRig(t testing.TB, n int, a Attach) *Rig {
	t.Helper()
	a.Obsv = true
	r, err := NewRig(n, tcanet.DefaultParams, a)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pingPong runs the ping-pong kernel on r, failing the test on a stall.
func pingPong(t testing.TB, r *Rig, src, dst, rounds int) *Result {
	t.Helper()
	res, err := r.PingPong(src, dst, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pingPongFleet is the latency anatomy of every leg of a rounds-long
// ping-pong on an observed n-node ring.
func pingPongFleet(t testing.TB, n, src, dst, rounds int) *critpath.Fleet {
	t.Helper()
	r := observedRig(t, n, Attach{})
	return critpath.Analyze("ping-pong", r.Set.Recorder(), pingPong(t, r, src, dst, rounds).Txns)
}

// TestRigAttachmentsCompose runs the combination no single scenario
// function used to offer — a sampled, profiled ping-pong under a live
// link cut — and requires the profiler and the sampler to leave the faulty
// run's event stream exactly as it is without them.
func TestRigAttachmentsCompose(t *testing.T) {
	const spec, seed = "linkdown:1e:12us", 7
	plain := pingPong(t, observedRig(t, 4, Attach{Fault: spec, Seed: seed}), 0, 2, 10)
	p := prof.New(prof.Options{})
	r := observedRig(t, 4, Attach{Fault: spec, Seed: seed, Prof: p, Label: "compose", Interval: units.Microsecond})
	res := pingPong(t, r, 0, 2, 10)
	if res.EndToEnd != plain.EndToEnd {
		t.Errorf("profiled+sampled run took %v, plain faulty run %v", res.EndToEnd, plain.EndToEnd)
	}
	if len(res.Txns) != len(plain.Txns) {
		t.Errorf("txns %d vs %d", len(res.Txns), len(plain.Txns))
	}
	if v, ok := r.Snapshot().Counter("fault.failovers", "injector"); !ok || v == 0 {
		t.Errorf("fault.failovers = %d ok=%v, want a failover", v, ok)
	}
	if res.Stats.Scenario != "compose" || res.Stats.Events == 0 {
		t.Errorf("run stats %+v", res.Stats)
	}
	if len(r.Set.Sampler().Timeline().Series()) == 0 {
		t.Error("sampler recorded no series")
	}
}
