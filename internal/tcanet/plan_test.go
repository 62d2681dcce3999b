package tcanet

import (
	"testing"
	"testing/quick"

	"tca/internal/pcie"
	"tca/internal/peach2"
)

func TestNewPlanBounds(t *testing.T) {
	for _, bad := range []int{0, 1, 17, -3} {
		if _, err := NewPlan(bad); err == nil {
			t.Errorf("NewPlan(%d) succeeded", bad)
		}
	}
	for _, good := range []int{2, 4, 8, 15, 16} {
		if _, err := NewPlan(good); err != nil {
			t.Errorf("NewPlan(%d): %v", good, err)
		}
	}
}

func TestPlanWindowsAlignedDisjointOrdered(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		p := mustPlan(n)
		region := p.Region()
		var prev pcie.Range
		for i := 0; i < n; i++ {
			w := p.NodeWindow(i)
			if !selfAligned(w) {
				t.Fatalf("n=%d node %d window %v not self-aligned", n, i, w)
			}
			if !region.ContainsRange(w) {
				t.Fatalf("n=%d node %d window %v outside region", n, i, w)
			}
			if i > 0 {
				if w.Overlaps(prev) {
					t.Fatalf("n=%d windows %v and %v overlap", n, prev, w)
				}
				if w.Base < prev.End() {
					t.Fatalf("n=%d windows out of order", n)
				}
			}
			prev = w
		}
	}
}

func TestPlanBlocksPartitionWindow(t *testing.T) {
	p := mustPlan(4)
	for i := 0; i < 4; i++ {
		w := p.NodeWindow(i)
		var total uint64
		for b := 0; b < BlocksPerNode; b++ {
			blk := p.Block(i, b)
			if !selfAligned(blk) {
				t.Fatalf("block %d/%d %v not aligned", i, b, blk)
			}
			if !w.ContainsRange(blk) {
				t.Fatalf("block %d/%d outside window", i, b)
			}
			total += blk.Size
		}
		if total != w.Size {
			t.Fatalf("blocks cover %d of %d", total, w.Size)
		}
	}
}

func TestPlanClassOf(t *testing.T) {
	p := mustPlan(4)
	cases := []struct {
		a    pcie.Addr
		want peach2.BlockClass
		ok   bool
	}{
		{p.GPUBlock(0, 0).Base, peach2.ClassGPU, true},
		{p.GPUBlock(2, 1).Base + 0x100, peach2.ClassGPU, true},
		{p.HostBlock(1).Base + 0x4000, peach2.ClassHost, true},
		{p.InternalBlock(3).Base, peach2.ClassInternal, true},
		{RegionBase - 1, 0, false},
		{0x1000, 0, false},
	}
	for _, c := range cases {
		got, ok := p.ClassOf(c.a)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ClassOf(%v) = (%v, %t), want (%v, %t)", c.a, got, ok, c.want, c.ok)
		}
	}
}

func TestPlanNodeOf(t *testing.T) {
	p := mustPlan(3) // 3 nodes in 4 power-of-two slots: slot 3 unmapped
	for i := 0; i < 3; i++ {
		w := p.NodeWindow(i)
		for _, a := range []pcie.Addr{w.Base, w.Base + pcie.Addr(w.Size/2), w.End() - 1} {
			got, ok := p.NodeOf(a)
			if !ok || got != i {
				t.Fatalf("NodeOf(%v) = (%d, %t), want (%d, true)", a, got, ok, i)
			}
		}
	}
	// The fourth slot exists in the region but belongs to no node.
	if _, ok := p.NodeOf(RegionBase + pcie.Addr(3*uint64(p.WindowSize()))); ok {
		t.Fatal("NodeOf resolved an unpopulated slot")
	}
}

func TestPlanAckAddrInsideInternalBlock(t *testing.T) {
	p := mustPlan(8)
	for i := 0; i < 8; i++ {
		if !p.InternalBlock(i).Contains(p.AckAddr(i)) {
			t.Fatalf("node %d ack addr outside its internal block", i)
		}
	}
}

func TestGPUBlockRejectsFarSocketGPUs(t *testing.T) {
	p := mustPlan(4)
	defer func() {
		if recover() == nil {
			t.Fatal("GPUBlock(_, 2) did not panic — PEACH2 reaches only GPU0/GPU1")
		}
	}()
	p.GPUBlock(0, 2)
}

// simulateRoute walks a packet from node src toward global address a using
// only each hop's Fig. 5 rules, mirroring Chip.route's order. It returns
// the hop count, or -1 on a routing failure/loop.
func simulateRoute(p Plan, rules map[int][]peach2.RouteRule, src int, a pcie.Addr, ringNext func(i int, out peach2.PortID) int) int {
	cur := src
	for hops := 0; hops <= p.nodes+2; hops++ {
		if p.NodeWindow(cur).Contains(a) {
			return hops
		}
		var out peach2.PortID = -1
		for _, r := range rules[cur] {
			if r.Matches(a) {
				out = r.Out
				break
			}
		}
		if out < 0 {
			return -1
		}
		cur = ringNext(cur, out)
	}
	return -1
}

func TestRingRoutesReachEveryNodeViaShortestArc(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 16} {
		p := mustPlan(n)
		rules := map[int][]peach2.RouteRule{}
		for i := 0; i < n; i++ {
			rs := p.RingRoutes(i)
			if len(rs) > peach2.MaxRouteRules {
				t.Fatalf("n=%d node %d needs %d rules (> %d registers)", n, i, len(rs), peach2.MaxRouteRules)
			}
			rules[i] = rs
		}
		next := func(i int, out peach2.PortID) int {
			switch out {
			case peach2.PortE:
				return (i + 1) % n
			case peach2.PortW:
				return (i - 1 + n) % n
			default:
				t.Fatalf("unexpected egress %v on a plain ring", out)
				return -1
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				a := p.NodeWindow(dst).Base + 0x1234
				hops := simulateRoute(p, rules, src, a, next)
				de := (dst - src + n) % n
				dw := (src - dst + n) % n
				want := de
				if dw < want {
					want = dw
				}
				if hops != want {
					t.Fatalf("n=%d route %d→%d took %d hops, want %d", n, src, dst, hops, want)
				}
			}
		}
	}
}

// Property: any address anywhere in a destination window routes identically
// to the window base (the compare-only router never looks at low bits).
func TestQuickRingRoutesIgnoreLowBits(t *testing.T) {
	p := mustPlan(8)
	rules := map[int][]peach2.RouteRule{}
	for i := 0; i < 8; i++ {
		rules[i] = p.RingRoutes(i)
	}
	f := func(src, dst uint8, off uint32) bool {
		s, d := int(src%8), int(dst%8)
		if s == d {
			return true
		}
		w := p.NodeWindow(d)
		a := w.Base + pcie.Addr(uint64(off)%w.Size)
		var outBase, outOff peach2.PortID = -1, -1
		for _, r := range rules[s] {
			if r.Matches(w.Base) {
				outBase = r.Out
				break
			}
		}
		for _, r := range rules[s] {
			if r.Matches(a) {
				outOff = r.Out
				break
			}
		}
		return outBase == outOff && outBase >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIdRanges(t *testing.T) {
	cases := []struct {
		in   []int
		want [][2]int
	}{
		{nil, nil},
		{[]int{3}, [][2]int{{3, 3}}},
		{[]int{1, 2, 3}, [][2]int{{1, 3}}},
		{[]int{0, 2, 3, 7}, [][2]int{{0, 0}, {2, 3}, {7, 7}}},
	}
	for _, c := range cases {
		got := idRanges(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("idRanges(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("idRanges(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// selfAligned reports whether r is a power-of-two window on a multiple of
// its own size — the property PEACH2's compare-only routing requires.
func selfAligned(r pcie.Range) bool {
	return r.Size != 0 && r.Size&(r.Size-1) == 0 && uint64(r.Base)%r.Size == 0
}

// mustPlan is NewPlan for the fixed sizes the tests use.
func mustPlan(n int) Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}
