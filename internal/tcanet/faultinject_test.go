package tcanet

import (
	"errors"
	"testing"

	"tca/internal/fault"
	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/units"
)

func TestDualRingRerouteKeepsSCoupling(t *testing.T) {
	eng := sim.NewEngine()
	sc, err := BuildDualRing(eng, 3, DefaultParams) // nodes 0-2 ring A, 3-5 ring B
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(obsv.NewSet(1024))
	ringBBefore := make([][]peach2.RouteRule, 3)
	for i := 3; i < 6; i++ {
		ringBBefore[i-3] = sc.Chip(i).Routes()
	}
	// Cut cable 1→2 in ring A.
	if err := sc.RerouteAvoidingCut(1); err != nil {
		t.Fatal(err)
	}
	// Every ring-A chip must keep a Port-S rule (the inter-ring coupling)
	// alongside the rewritten E/W arc rules.
	for i := 0; i < 3; i++ {
		hasS := false
		for _, r := range sc.Chip(i).Routes() {
			if r.Out == peach2.PortS {
				hasS = true
			}
		}
		if !hasS {
			t.Fatalf("chip %d lost its Port-S coupling rule after reroute", i)
		}
	}
	// Ring B was not touched.
	for i := 3; i < 6; i++ {
		after := sc.Chip(i).Routes()
		if len(after) != len(ringBBefore[i-3]) {
			t.Fatalf("chip %d in the healthy ring was reprogrammed", i)
		}
		for j := range after {
			if after[j] != ringBBefore[i-3][j] {
				t.Fatalf("chip %d rule %d changed in the healthy ring", i, j)
			}
		}
	}
	// Intra-ring traffic around the cut: 0→2 must go west now.
	buf2, _ := sc.Node(2).AllocDMABuffer(64)
	dst2, _ := sc.GlobalHostAddr(2, buf2)
	sc.Node(0).Store(dst2, []byte{11})
	// Cross-ring traffic still crosses S: 0→4.
	buf4, _ := sc.Node(4).AllocDMABuffer(64)
	dst4, _ := sc.GlobalHostAddr(4, buf4)
	sc.Node(0).Store(dst4, []byte{22})
	eng.Run()
	if got, _ := sc.Node(2).ReadLocal(buf2, 1); got[0] != 11 {
		t.Fatal("intra-ring write did not arrive after reroute")
	}
	if got, _ := sc.Node(4).ReadLocal(buf4, 1); got[0] != 22 {
		t.Fatal("cross-ring write did not cross the S coupling after reroute")
	}
	if forwarded(t, sc, 1, peach2.PortE) != 0 {
		t.Fatal("traffic crossed the cut cable")
	}
}

func TestRingRoutesAvoidingOverflowReturnsTaggedError(t *testing.T) {
	// A dual-ring chip carries one S rule plus the avoidance arcs; shrink
	// the budget artificially by passing many extra rules so the register
	// file overflows, and check the error is tagged for the NIOS to match.
	p := mustPlan(16)
	extra := make([]peach2.RouteRule, peach2.MaxRouteRules)
	_, err := p.ringRoutesAvoidingIn(0, 16, 3, 7, extra)
	if err == nil {
		t.Fatal("overflowing rule set accepted")
	}
	if !errors.Is(err, ErrRouteRulesOverflow) {
		t.Fatalf("error %v is not tagged ErrRouteRulesOverflow", err)
	}
}

// TestLiveFailover is the headline resilience scenario: traffic is already
// flowing when a ring cable dies mid-run; the DLL exhausts its replay
// budget, the NIOS fast path fires, the ring degrades to a line, and every
// payload — including TLPs parked on the dead egress and TLPs salvaged from
// the dead DLL's replay buffer — arrives byte-identical via the long way.
func TestLiveFailover(t *testing.T) {
	eng, sc := buildRing(t, 4)
	// Cable 1→2 dies permanently at 5 µs.
	prof, err := fault.ParseScenario("linkdown:1e:5us", 7)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(prof)
	sc.InjectFaults(inj, pcie.DefaultDLLParams())
	sc.EnableAutoFailover()

	// Node 0 streams one-byte writes to node 2 every 2 µs from t=0 to
	// t=38 µs, spanning before the cut, the replay/death window, and the
	// post-failover regime. 0→2 initially routes east through the doomed
	// cable.
	const writes = 20
	buf, err := sc.Node(2).AllocDMABuffer(writes)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := sc.GlobalHostAddr(2, buf)
	for i := 0; i < writes; i++ {
		i := i
		eng.At(sim.Time(0).Add(units.Duration(i)*2*units.Microsecond), func() {
			sc.Node(0).Store(base+pcie.Addr(i), []byte{byte(0x40 + i)})
		})
	}
	eng.Run()

	got, err := sc.Node(2).ReadLocal(buf, writes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if got[i] != byte(0x40+i) {
			t.Fatalf("write %d: got %#x, want %#x (payload lost or corrupted across failover)", i, got[i], 0x40+i)
		}
	}
	c := inj.Counts()
	if c.Replays == 0 {
		t.Fatal("DLL never replayed — the cut was not exercised")
	}
	if c.LinkDown == 0 {
		t.Fatal("replay exhaustion never declared the link dead")
	}
	if c.Failovers != 1 {
		t.Fatalf("failovers = %d, want exactly 1 (both cable ends report the same cut)", c.Failovers)
	}
	// Post-failover, 0→2 goes the long way west; the dead cable's E
	// counter at chip 1 must stay below the write count.
	if forwarded(t, sc, 3, peach2.PortW) == 0 {
		t.Fatal("rerouted traffic never took the surviving western arc")
	}
}
