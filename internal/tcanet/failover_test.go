package tcanet

import (
	"testing"

	"tca/internal/peach2"
)

func TestRingRoutesAvoidingNeverUsesCutLink(t *testing.T) {
	// n=2 is the degenerate ring (the cut leaves exactly one cable); every
	// cut position also exercises cuts adjacent to the source on both sides.
	for _, n := range []int{2, 3, 4, 8, 16} {
		p := mustPlan(n)
		for cut := 0; cut < n; cut++ {
			rules := map[int][]peach2.RouteRule{}
			for i := 0; i < n; i++ {
				var err error
				rules[i], err = p.ringRoutesAvoidingIn(0, n, i, cut, nil)
				if err != nil {
					t.Fatalf("n=%d cut=%d node=%d: %v", n, cut, i, err)
				}
			}
			next := func(i int, out peach2.PortID) int {
				switch out {
				case peach2.PortE:
					if i == cut {
						t.Fatalf("n=%d cut=%d: node %d routed east across the cut", n, cut, i)
					}
					return (i + 1) % n
				case peach2.PortW:
					if (i-1+n)%n == cut {
						t.Fatalf("n=%d cut=%d: node %d routed west across the cut", n, cut, i)
					}
					return (i - 1 + n) % n
				default:
					t.Fatalf("unexpected egress %v", out)
					return -1
				}
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					a := p.NodeWindow(dst).Base + 0x40
					hops := simulateRoute(p, rules, src, a, next)
					if hops < 0 {
						t.Fatalf("n=%d cut=%d: %d→%d unroutable", n, cut, src, dst)
					}
					// On a line, the hop count is the distance along
					// the surviving arc.
					de := (dst - src + n) % n
					cutPos := (cut - src + n) % n
					want := de
					if cutPos < de {
						want = n - de
					}
					if hops != want {
						t.Fatalf("n=%d cut=%d: %d→%d took %d hops, want %d", n, cut, src, dst, hops, want)
					}
				}
			}
		}
	}
}

func TestRerouteAvoidingCutKeepsTrafficFlowing(t *testing.T) {
	eng, sc := buildRing(t, 4)
	// Before the cut, node0 → node1 goes east over link 0→1.
	before := forwarded(t, sc, 0, peach2.PortE)
	// Management plane reroutes around a dead 0→1 cable.
	if err := sc.RerouteAvoidingCut(0); err != nil {
		t.Fatal(err)
	}
	buf, _ := sc.Node(1).AllocDMABuffer(64)
	dst, _ := sc.GlobalHostAddr(1, buf)
	sc.Node(0).Store(dst, []byte{7})
	eng.Run()
	got, _ := sc.Node(1).ReadLocal(buf, 1)
	if got[0] != 7 {
		t.Fatal("write did not arrive after reroute")
	}
	// It must have gone west the long way (0 →W 3 →W 2 →W 1), so node 0's
	// E counter did not move and intermediate chips forwarded westward.
	if forwarded(t, sc, 0, peach2.PortE) != before {
		t.Fatal("traffic still used the dead eastward cable")
	}
	if forwarded(t, sc, 3, peach2.PortW) == 0 || forwarded(t, sc, 2, peach2.PortW) == 0 {
		t.Fatal("long-way path not taken")
	}
	// The host-chip links were never affected (§V): another local DMA
	// still works.
	if !sc.Chip(0).Port(peach2.PortN).Connected() {
		t.Fatal("host link lost")
	}
}
