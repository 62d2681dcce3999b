package peach2

import (
	"encoding/binary"
	"strings"
	"testing"

	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// testPlan builds a 2-node-style plan by hand (64 GiB windows, 16 GiB
// blocks) without importing tcanet.
func testPlan(nodeID int) NodePlan {
	const regionBase = pcie.Addr(0x80_0000_0000)
	const window = uint64(64 << 30)
	const block = window / 4
	base := regionBase + pcie.Addr(uint64(nodeID)*window)
	blockAt := func(node, b int) pcie.Range {
		return pcie.Range{
			Base: regionBase + pcie.Addr(uint64(node)*window+uint64(b)*block),
			Size: block,
		}
	}
	return NodePlan{
		NodeID:       nodeID,
		GlobalWindow: pcie.Range{Base: base, Size: window},
		TCARegion:    pcie.Range{Base: regionBase, Size: 2 * window},
		Internal:     blockAt(nodeID, 3),
		Conv: []ConvEntry{
			{Global: blockAt(nodeID, 0), Local: 0x60_0000_0000, Class: ClassGPU},
			{Global: blockAt(nodeID, 1), Local: 0x61_0000_0000, Class: ClassGPU},
			{Global: blockAt(nodeID, 2), Local: 0, Class: ClassHost},
		},
		AckAddrOf: func(n int) pcie.Addr {
			return blockAt(n, 3).Base + pcie.Addr(AckOffset)
		},
		NodeOfRequester: func(id pcie.DeviceID) (int, bool) { return int(id) - 1, id >= 1 && id <= 2 },
		ClassOf: func(a pcie.Addr) (BlockClass, bool) {
			if a < regionBase || a >= regionBase+pcie.Addr(2*window) {
				return 0, false
			}
			switch uint64(a-regionBase) % window / block {
			case 0, 1:
				return ClassGPU, true
			case 2:
				return ClassHost, true
			default:
				return ClassInternal, true
			}
		},
	}
}

type recorder struct {
	name string
	got  []*pcie.TLP
	at   []sim.Time
}

func (r *recorder) DevName() string { return r.name }
func (r *recorder) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration {
	r.got = append(r.got, t)
	r.at = append(r.at, now)
	return 0
}

// chipFixture: an instrumented chip with a fake host on N and a fake
// neighbour on E.
type chipFixture struct {
	t     *testing.T
	eng   *sim.Engine
	chip  *Chip
	set   *obsv.Set
	hostd *recorder
	east  *recorder
}

func newChipFixture(t *testing.T) *chipFixture {
	t.Helper()
	eng := sim.NewEngine()
	chip := New(eng, "peach2-A", 1, DefaultParams, testPlan(0))
	f := &chipFixture{t: t, eng: eng, chip: chip, set: obsv.NewSet(64), hostd: &recorder{name: "host"}, east: &recorder{name: "east"}}
	chip.Instrument(f.set)
	hp := pcie.NewPort(f.hostd, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, hp, chip.Port(PortN), pcie.LinkParams{Config: pcie.Gen2x8})
	ep := pcie.NewPort(f.east, "W", pcie.RoleRC) // pretends to be the next chip's W port
	pcie.MustConnect(eng, chip.Port(PortE), ep, pcie.LinkParams{Config: pcie.Gen2x8, Propagation: 100 * units.Nanosecond})
	win := uint64(64 << 30)
	mask := ^pcie.Addr(win - 1)
	chip.SetRoutes([]RouteRule{{
		Mask:  mask,
		Lower: 0x80_0000_0000 + pcie.Addr(win),
		Upper: 0x80_0000_0000 + pcie.Addr(win),
		Out:   PortE,
	}})
	return f
}

func (f *chipFixture) hostPort() *pcie.Port { return f.chip.Port(PortN).Peer() }

// count reads a counter the chip registered under its own name plus
// suffix ("" for the router, "/dmac" for the DMAC).
func (f *chipFixture) count(name, suffix string, labels ...obsv.Label) uint64 {
	f.t.Helper()
	v, ok := f.set.Registry().CounterValue(name, f.chip.DevName()+suffix, labels...)
	if !ok {
		f.t.Fatalf("no %s counter for %s%s", name, f.chip.DevName(), suffix)
	}
	return v
}

// intMemGlobal returns the global bus address of internal-memory offset off.
func (c *Chip) intMemGlobal(off uint64) pcie.Addr {
	return c.plan.Internal.Base + pcie.Addr(IntMemOffset+off)
}

func TestChipRoutesRemoteWindowToRing(t *testing.T) {
	f := newChipFixture(t)
	remote := pcie.Addr(0x80_0000_0000 + uint64(64<<30) + 0x1234)
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: remote, Data: []byte{1, 2}})
	f.eng.Run()
	if len(f.east.got) != 1 || f.east.got[0].Addr != remote {
		t.Fatalf("east got %v", f.east.got)
	}
	if len(f.hostd.got) != 0 {
		t.Fatal("packet leaked back to host")
	}
	// Router pipeline (100 ns) must be visible in the forwarding time.
	if f.east.at[0] < sim.Time(100*units.Nanosecond) {
		t.Fatalf("forwarded at %v — router latency missing", f.east.at[0])
	}
}

func TestChipConvertsOwnWindowAtPortN(t *testing.T) {
	f := newChipFixture(t)
	// A write arriving on E for this node's host block must exit N with
	// the local bus address (global base stripped).
	hostBlock := pcie.Addr(0x80_0000_0000 + 2*uint64(16<<30))
	in := f.chip.Port(PortE).Peer()
	in.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: hostBlock + 0x4000, Data: []byte{7}})
	f.eng.Run()
	if len(f.hostd.got) != 1 {
		t.Fatalf("host got %d packets", len(f.hostd.got))
	}
	if got := f.hostd.got[0].Addr; got != 0x4000 {
		t.Fatalf("converted address = %v, want 0x4000", got)
	}
	if f.count("addr_conversions", "") != 1 {
		t.Fatal("conversion counter not incremented")
	}
}

func TestChipConvertsGPUBlock(t *testing.T) {
	f := newChipFixture(t)
	gpu1 := pcie.Addr(0x80_0000_0000 + uint64(16<<30))
	in := f.chip.Port(PortE).Peer()
	in.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: gpu1 + 0x100, Data: []byte{7}})
	f.eng.Run()
	if got := f.hostd.got[0].Addr; got != 0x61_0000_0100 {
		t.Fatalf("converted GPU address = %v, want 0x61_0000_0100", got)
	}
}

func TestChipLocalBusAddressesPassThroughN(t *testing.T) {
	f := newChipFixture(t)
	// DMAC-originated packets to local bus addresses (outside the TCA
	// region) exit N unchanged.
	f.chip.DMAC().sendFromDMAC(&pcie.TLP{Kind: pcie.MWr, Addr: 0x9000, Data: []byte{1}, Requester: 1})
	f.eng.Run()
	if len(f.hostd.got) != 1 || f.hostd.got[0].Addr != 0x9000 {
		t.Fatalf("host got %v", f.hostd.got)
	}
}

func TestChipRemoteReadPanics(t *testing.T) {
	f := newChipFixture(t)
	remote := pcie.Addr(0x80_0000_0000 + uint64(64<<30))
	defer func() {
		if recover() == nil {
			t.Fatal("remote MRd did not panic — RDMA put only (§III-F)")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: remote, ReadLen: 64, Requester: 9})
	f.eng.Run()
}

func TestChipUnroutableAddressPanics(t *testing.T) {
	f := newChipFixture(t)
	f.chip.SetRoutes(nil)
	remote := pcie.Addr(0x80_0000_0000 + uint64(64<<30))
	defer func() {
		if recover() == nil {
			t.Fatal("unroutable packet did not panic")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: remote, Data: []byte{1}})
	f.eng.Run()
}

func TestChipInternalMemoryWriteAndRead(t *testing.T) {
	f := newChipFixture(t)
	dst := f.chip.intMemGlobal(0x40)
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: dst, Data: []byte("buffer bytes")})
	f.eng.Run()
	got, err := f.chip.InternalMemory().ReadBytes(0x40, 12)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "buffer bytes" {
		t.Fatalf("internal memory holds %q", got)
	}
	// Read back over PCIe.
	f.hostPort().Send(f.eng.Now(), &pcie.TLP{Kind: pcie.MRd, Addr: dst, ReadLen: 12, Tag: 3, Requester: 9})
	f.eng.Run()
	var data []byte
	for _, c := range f.hostd.got {
		data = append(data, c.Data...)
	}
	if string(data) != "buffer bytes" {
		t.Fatalf("PCIe read returned %q", data)
	}
}

func TestChipRegisterWriteAndReadback(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, 0xDEAD_BEEF)
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: base + pcie.Addr(RegDMATable), Data: buf})
	f.eng.Run()
	f.hostPort().Send(f.eng.Now(), &pcie.TLP{Kind: pcie.MRd, Addr: base + pcie.Addr(RegDMATable), ReadLen: 8, Tag: 1, Requester: 9})
	f.eng.Run()
	if len(f.hostd.got) != 1 {
		t.Fatalf("got %d completions", len(f.hostd.got))
	}
	if v := binary.LittleEndian.Uint64(f.hostd.got[0].Data); v != 0xDEAD_BEEF {
		t.Fatalf("register readback = %#x", v)
	}
}

func TestChipRouteRegistersProgramRules(t *testing.T) {
	f := newChipFixture(t)
	f.chip.SetRoutes(nil)
	base := f.chip.plan.Internal.Base + pcie.Addr(RegRouteBase)
	win := uint64(64 << 30)
	vals := []uint64{
		uint64(^pcie.Addr(win - 1)),             // mask
		uint64(0x80_0000_0000 + pcie.Addr(win)), // lower
		uint64(0x80_0000_0000 + pcie.Addr(win)), // upper
		uint64(PortE),                           // out
	}
	for i, v := range vals {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, v)
		f.hostPort().Send(f.eng.Now(), &pcie.TLP{Kind: pcie.MWr, Addr: base + pcie.Addr(i*8), Data: buf})
	}
	f.eng.Run()
	rules := f.chip.Routes()
	if len(rules) != 1 || rules[0].Out != PortE {
		t.Fatalf("register-programmed rules = %+v", rules)
	}
	// And they route.
	remote := pcie.Addr(0x80_0000_0000 + win + 0x10)
	f.hostPort().Send(f.eng.Now(), &pcie.TLP{Kind: pcie.MWr, Addr: remote, Data: []byte{5}})
	f.eng.Run()
	if len(f.east.got) != 1 {
		t.Fatal("register-programmed route did not forward")
	}
}

func TestChipReadOnlyRegisterPanics(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	defer func() {
		if recover() == nil {
			t.Fatal("write to RegChipID did not panic")
		}
	}()
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: base + pcie.Addr(RegChipID), Data: make([]byte, 8)})
	f.eng.Run()
}

func TestChipStatusRegister(t *testing.T) {
	f := newChipFixture(t)
	base := f.chip.plan.Internal.Base
	f.hostPort().Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: base + pcie.Addr(RegStatus), ReadLen: 8, Tag: 1, Requester: 9})
	f.eng.Run()
	w := binary.LittleEndian.Uint64(f.hostd.got[0].Data)
	// N and E connected, W and S not, DMAC idle.
	if w != 0b0011 {
		t.Fatalf("status word = %#b, want 0b0011", w)
	}
}

func TestSetRoutesLimit(t *testing.T) {
	f := newChipFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("9 rules did not panic")
		}
	}()
	f.chip.SetRoutes(make([]RouteRule, 9))
}

func TestChipPortAccessors(t *testing.T) {
	eng := sim.NewEngine()
	chip := New(eng, "c", 1, DefaultParams, testPlan(0))
	if !strings.HasSuffix(chip.Port(PortN).String(), "(EP)") {
		t.Fatal("Port N must be an endpoint toward the host")
	}
	if !strings.HasSuffix(chip.Port(PortE).String(), "(EP)") || !strings.HasSuffix(chip.Port(PortW).String(), "(RC)") {
		t.Fatal("E must be EP and W must be RC (§III-D)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Port(PortInternal) did not panic")
		}
	}()
	chip.Port(PortInternal)
}
