package tcanet

import (
	"fmt"
	"strings"
	"testing"

	"tca/internal/host"
	"tca/internal/ntb"
	"tca/internal/pcie"
	"tca/internal/sim"
)

// rcOf returns node i's root complex as the enumeration start.
func rcOf(sc *SubCluster, i int) pcie.Device {
	// The RC owns the socket switches' upstream peers.
	return sc.Node(i).Socket(0).Upstream().Peer().Owner()
}

// TestBIOSScanStopsAtPEACH2 is the §V enumeration contrast: a bus scan from
// one node's root complex discovers that node's own devices — including
// PEACH2 as an ordinary endpoint — but never crosses the ring into another
// node, so a neighbour's death cannot invalidate this host's device tree.
func TestBIOSScanStopsAtPEACH2(t *testing.T) {
	_, sc := buildRing(t, 4)
	devs := enumerate(rcOf(sc, 0))
	names := map[string]bool{}
	for _, d := range devs {
		names[d.DevName()] = true
	}
	for _, want := range []string{"node0.rc", "node0.sock0", "node0.sock1",
		"node0.gpu0", "node0.gpu1", "node0.gpu2", "node0.gpu3", "peach2-0"} {
		if !names[want] {
			t.Fatalf("scan missed %s (found %v)", want, names)
		}
	}
	if len(devs) != 8 {
		t.Fatalf("scan found %d devices, want exactly 8 (no ring crossing)", len(devs))
	}
	for n := range names {
		if n == "peach2-1" || n == "node1.rc" {
			t.Fatalf("scan crossed the ring into %s", n)
		}
	}
}

// TestBIOSScanCrossesNTB shows the opposing behaviour: the bridge's
// endpoints belong to both fabrics, so a scan from host A walks into host
// B's entire tree — the lifetime coupling §V criticizes.
func TestBIOSScanCrossesNTB(t *testing.T) {
	eng := sim.NewEngine()
	a := host.NewNode(eng, 0, host.DefaultParams)
	b := host.NewNode(eng, 1, host.DefaultParams)
	br := ntb.New(eng, "ntb0", ntb.DefaultParams)
	win := pcie.Range{Base: 0x90_0000_0000, Size: 1 << 30}
	if err := a.AttachDevice(0, "ntb", win, br.Port(ntb.SideA), pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachDevice(0, "ntb", win, br.Port(ntb.SideB), pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	start := a.Socket(0).Upstream().Peer().Owner()
	devs := enumerate(start)
	crossed := false
	for _, d := range devs {
		if d.DevName() == "node1.rc" {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("NTB scan did not reach the peer host — the §V coupling should be visible")
	}
	// Both full trees: 2 × (rc + 2 switches + 4 GPUs) + bridge = 15.
	if len(devs) != 15 {
		t.Fatalf("scan found %d devices, want 15", len(devs))
	}
}

// TestValidateTreeAcceptsBuiltTopologies runs the structural validator over
// everything the builders produce.
func TestValidateTreeAcceptsBuiltTopologies(t *testing.T) {
	_, sc := buildRing(t, 8)
	for i := 0; i < 8; i++ {
		if err := validateTree(rcOf(sc, i)); err != nil {
			t.Fatalf("node %d tree invalid: %v", i, err)
		}
	}
	eng := sim.NewEngine()
	dual, err := BuildDualRing(eng, 3, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateTree(rcOf(dual, 0)); err != nil {
		t.Fatalf("dual-ring tree invalid: %v", err)
	}
}

// TestEnumerateDeterministic guards the name-sorted discovery order.
func TestEnumerateDeterministic(t *testing.T) {
	_, sc := buildRing(t, 2)
	a := enumerate(rcOf(sc, 0))
	b := enumerate(rcOf(sc, 0))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].DevName() != b[i].DevName() {
			t.Fatalf("order differs at %d: %s vs %s", i, a[i].DevName(), b[i].DevName())
		}
	}
}

// validateTree checks structural invariants of a fabric reachable from
// start: every link joins exactly one RC-side and one EP-side port, and no
// two downstream windows of any switch overlap (AddressMap enforces the
// latter at construction; the walk re-checks what a bus scan would see).
func validateTree(start pcie.Device) error {
	for _, dev := range enumerate(start) {
		en, ok := dev.(enumerable)
		if !ok {
			continue
		}
		for _, p := range en.Ports() {
			peer := p.Peer()
			if peer == nil {
				continue
			}
			if role(p) == role(peer) {
				return fmt.Errorf("pcie: link %v — %v joins two %v ports", p, peer, role(p))
			}
		}
	}
	return nil
}

// role reads a port's role from its "device.label(ROLE)" form.
func role(p *pcie.Port) string {
	s := p.String()
	return s[strings.LastIndex(s, "(")+1 : len(s)-1]
}
