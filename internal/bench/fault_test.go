package bench

import (
	"strings"
	"testing"

	"tca/internal/core"
	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// TestFaultPingPongLiveFailover is the acceptance scenario: ping-pong over
// a ring with one E/W cable cut mid-run completes every round with correct
// payloads via the rerouted path, and the injector's counters prove the
// cut, the replays, and the failover actually happened.
func TestFaultPingPongLiveFailover(t *testing.T) {
	r := observedRig(t, 4, Attach{Fault: "linkdown:1e:12us", Seed: 7})
	res := pingPong(t, r, 0, 2, 10)
	snap, spans := r.Snapshot(), r.Spans(res.Txns)
	for _, c := range []struct {
		name string
		min  uint64
	}{
		{"fault.link_down", 1},
		{"fault.replays", 1},
		{"fault.failovers", 1},
	} {
		v, ok := snap.Counter(c.name, "injector")
		if !ok {
			t.Fatalf("counter %s not in snapshot", c.name)
		}
		if v < c.min {
			t.Errorf("%s = %d, want >= %d", c.name, v, c.min)
		}
	}
	if len(spans) != 20 {
		t.Errorf("spans = %d, want 20 (10 pings + 10 pongs)", len(spans))
	}
	// At least one traced TLP was parked at the dead link and re-injected
	// by the failover — visible as link-down + failover stages on a span.
	parked, failedOver := false, false
	for _, sp := range spans {
		for _, ev := range sp.Events {
			if ev.Stage == obsv.StageLinkDown {
				parked = true
			}
			if ev.Stage == obsv.StageFailover {
				failedOver = true
			}
		}
	}
	if !parked || !failedOver {
		t.Errorf("no span shows the park/re-inject path (parked=%v failedOver=%v)", parked, failedOver)
	}
}

// faultedLoopbackChain runs one descriptor chain on a 2-node ring whose
// node-0 chip sees the given fault profile, and returns the chain's
// outcome.
func faultedChain(t *testing.T, prof fault.Profile, descs []peach2.Descriptor) (*core.Comm, *fault.Injector, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 2, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(prof)
	for i := 0; i < sc.Nodes(); i++ {
		sc.Chip(i).AttachFaults(inj)
		sc.Node(i).AttachFaults(inj)
	}
	comm, err := core.NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := comm.StartChain(0, descs, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return comm, inj, doneAt
}

// TestLostCompletionAbortsChain: with every DRAM read completion lost, the
// DMAC's completion timeout retries its budget and then surfaces a chain
// error through the driver instead of hanging the simulation forever.
func TestLostCompletionAbortsChain(t *testing.T) {
	descs := []peach2.Descriptor{{Kind: peach2.DescRead, Len: 256, Src: 0x1000, Dst: 0}}
	comm, inj, doneAt := faultedChain(t, fault.Profile{Seed: 1, LoseCpl: 1}, descs)
	if doneAt == 0 {
		t.Fatal("completion interrupt never fired — chain hung on the lost completion")
	}
	err := comm.ChainError(0)
	if err == nil {
		t.Fatal("chain completed cleanly despite every completion being lost")
	}
	if !strings.Contains(err.Error(), "no completion") {
		t.Errorf("chain error %q does not name the lost completion", err)
	}
	c := inj.Counts()
	if c.LostCompletions == 0 {
		t.Error("no completions counted as lost")
	}
	if c.ReadRetries != uint64(peach2.DefaultCplRetries) {
		t.Errorf("read retries = %d, want the full budget %d", c.ReadRetries, peach2.DefaultCplRetries)
	}
	if c.ChainErrors != 1 {
		t.Errorf("chain errors = %d, want 1", c.ChainErrors)
	}
}

// TestLostCompletionRetryRecovers: when only some completions are lost,
// the retry path recovers and the chain finishes cleanly.
func TestLostCompletionRetryRecovers(t *testing.T) {
	descs := []peach2.Descriptor{
		{Kind: peach2.DescRead, Len: 256, Src: 0x1000, Dst: 0},
		{Kind: peach2.DescRead, Len: 256, Src: 0x2000, Dst: 256},
		{Kind: peach2.DescRead, Len: 256, Src: 0x3000, Dst: 512},
		{Kind: peach2.DescRead, Len: 256, Src: 0x4000, Dst: 768},
	}
	comm, inj, doneAt := faultedChain(t, fault.Profile{Seed: 4, LoseCpl: 0.5}, descs)
	if doneAt == 0 {
		t.Fatal("chain never completed")
	}
	if err := comm.ChainError(0); err != nil {
		t.Fatalf("chain aborted: %v (seed 4 at 50%% loss should recover within %d retries)", err, peach2.DefaultCplRetries)
	}
	c := inj.Counts()
	if c.LostCompletions == 0 || c.ReadRetries == 0 {
		t.Errorf("loss/retry path not exercised: lost=%d retries=%d", c.LostCompletions, c.ReadRetries)
	}
	if c.ChainErrors != 0 {
		t.Errorf("chain errors = %d, want 0", c.ChainErrors)
	}
}

// TestStuckDescriptorTripsWatchdog: a descriptor that never generates its
// TLPs must not wedge the DMAC — the chain watchdog aborts and the IRQ
// still reaches the driver.
func TestStuckDescriptorTripsWatchdog(t *testing.T) {
	descs := []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 64, Src: 0, Dst: 0x100000},
		{Kind: peach2.DescWrite, Len: 64, Src: 64, Dst: 0x100100},
	}
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, 2, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Profile{Seed: 1, Stuck: true, StuckIndex: 1})
	sc.Chip(0).AttachFaults(inj)
	comm, err := core.NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	buf, err := sc.Node(1).AllocDMABuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.GlobalHostAddr(1, buf)
	if err != nil {
		t.Fatal(err)
	}
	descs[0].Dst = uint64(g)
	descs[1].Dst = uint64(g) + 2048
	var doneAt sim.Time
	if err := comm.StartChain(0, descs, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("watchdog never aborted the stuck chain")
	}
	if err := comm.ChainError(0); err == nil {
		t.Fatal("stuck chain reported clean completion")
	}
	c := inj.Counts()
	if c.StuckDescs != 1 {
		t.Errorf("stuck descriptors = %d, want 1", c.StuckDescs)
	}
	if c.ChainErrors != 1 {
		t.Errorf("chain errors = %d, want 1", c.ChainErrors)
	}
	if doneAt.Elapsed() < peach2.DefaultChainTimeout {
		t.Errorf("abort at %v, before the %v watchdog", doneAt, peach2.DefaultChainTimeout)
	}
}

// TestDegradedRingTable runs the extension experiment and its shape check.
func TestDegradedRingTable(t *testing.T) {
	tbl := ExtDegradedRing(tcanet.DefaultParams)
	if err := CheckDegradedRing(tbl); err != nil {
		t.Fatal(err)
	}
}
