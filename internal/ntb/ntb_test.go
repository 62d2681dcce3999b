package ntb

import (
	"bytes"
	"testing"

	"tca/internal/host"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// ntbPair wires two nodes through one bridge: node A reaches node B's DRAM
// through window winAB, and vice versa.
type ntbPair struct {
	eng    *sim.Engine
	bridge *Bridge
	a, b   *host.Node
	winAB  pcie.Range // on A's bus: writes here land in B's DRAM at 0
	winBA  pcie.Range
}

func newPair(t *testing.T) *ntbPair {
	t.Helper()
	eng := sim.NewEngine()
	a := host.NewNode(eng, 0, host.DefaultParams)
	b := host.NewNode(eng, 1, host.DefaultParams)
	br := New(eng, "ntb0", DefaultParams)
	p := &ntbPair{
		eng:    eng,
		bridge: br,
		a:      a,
		b:      b,
		winAB:  pcie.Range{Base: 0x90_0000_0000, Size: 1 << 30},
		winBA:  pcie.Range{Base: 0x90_0000_0000, Size: 1 << 30},
	}
	if err := a.AttachDevice(0, "ntb", p.winAB, br.Port(SideA), pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	if err := b.AttachDevice(0, "ntb", p.winBA, br.Port(SideB), pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	// Map each side's window onto the other's DRAM base.
	if err := br.AddMapping(SideA, p.winAB, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.AddMapping(SideB, p.winBA, 0); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNTBWriteCrossesAndTranslates(t *testing.T) {
	p := newPair(t)
	want := []byte("through the bridge")
	p.a.Store(p.winAB.Base+0x4000, want[:16])
	p.eng.Run()
	got, _ := p.b.ReadLocal(0x4000, 16)
	if !bytes.Equal(got, want[:16]) {
		t.Fatalf("B's DRAM holds %q", got)
	}
	ab, ba, rej := p.bridge.translated[SideA], p.bridge.translated[SideB], p.bridge.rejected
	if ab != 1 || ba != 0 || rej != 0 {
		t.Fatalf("stats %d/%d/%d", ab, ba, rej)
	}
}

func TestNTBBidirectional(t *testing.T) {
	p := newPair(t)
	p.a.Store(p.winAB.Base+0x100, []byte{1})
	p.b.Store(p.winBA.Base+0x200, []byte{2})
	p.eng.Run()
	gb, _ := p.b.ReadLocal(0x100, 1)
	ga, _ := p.a.ReadLocal(0x200, 1)
	if gb[0] != 1 || ga[0] != 2 {
		t.Fatal("bidirectional translation broken")
	}
}

func TestNTBSlowerPerHopThanPEACH2Routing(t *testing.T) {
	// The ablation's premise: LUT search + rewrite beats nothing — a
	// PEACH2 compare-only hop is 100 ns + 8 ns conversion, an NTB hop is
	// 150 + scan + 16.
	p := newPair(t)
	var arrived sim.Time
	p.b.Poll(pcie.Range{Base: 0x300, Size: 1}, func(now sim.Time) { arrived = now })
	p.a.Store(p.winAB.Base+0x300, []byte{7})
	p.eng.Run()
	if arrived == 0 {
		t.Fatal("write never observed")
	}
	// Host store path (~280 ns) + NTB (174 ns) + B-side delivery.
	if arrived < sim.Time(450*units.Nanosecond) {
		t.Fatalf("NTB crossing at %v suspiciously fast", arrived)
	}
}

func TestNTBLUTCapacity(t *testing.T) {
	eng := sim.NewEngine()
	br := New(eng, "n", Params{ForwardLatency: 1, LookupLatencyPerEntry: 1, TranslateLatency: 1, LUTSize: 2})
	if err := br.AddMapping(SideA, pcie.Range{Base: 0x1000, Size: 0x100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.AddMapping(SideA, pcie.Range{Base: 0x2000, Size: 0x100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.AddMapping(SideA, pcie.Range{Base: 0x3000, Size: 0x100}, 0); err == nil {
		t.Fatal("LUT overflow accepted")
	}
	if err := br.AddMapping(SideB, pcie.Range{Base: 0x1080, Size: 0x100}, 0); err != nil {
		t.Fatal("side B table should be independent")
	}
}

func TestNTBOverlappingMappingRejected(t *testing.T) {
	eng := sim.NewEngine()
	br := New(eng, "n", DefaultParams)
	if err := br.AddMapping(SideA, pcie.Range{Base: 0x1000, Size: 0x1000}, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.AddMapping(SideA, pcie.Range{Base: 0x1800, Size: 0x1000}, 0); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
}

func TestNTBUnmappedAddressPanics(t *testing.T) {
	p := newPair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped NTB access did not panic")
		}
	}()
	// Poke a hole: remove mappings by building a fresh bridge is
	// overkill; write beyond the mapped gigabyte instead — the switch
	// window is what routes here, so shrink the mapping first.
	br := New(p.eng, "n2", DefaultParams)
	_ = br.AddMapping(SideA, pcie.Range{Base: 0x1000, Size: 0x100}, 0)
	hostd := pcie.NewPort(&fake{}, "x", pcie.RoleRC)
	pcie.MustConnect(p.eng, hostd, br.Port(SideA), pcie.LinkParams{Config: pcie.Gen2x8})
	hostd.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x9000, Data: []byte{1}})
	p.eng.Run()
}

type fake struct{}

func (f *fake) DevName() string                                               { return "fake" }
func (f *fake) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration { return 0 }

func TestNTBSideString(t *testing.T) {
	if SideA.String() != "A" || SideB.String() != "B" {
		t.Fatal("side strings wrong")
	}
}
