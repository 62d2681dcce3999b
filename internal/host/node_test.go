package host

import (
	"bytes"
	"testing"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

func TestNodeConstruction(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 3, DefaultParams)
	if n.Name() != "node3" || n.id != 3 {
		t.Fatalf("identity wrong: %s/%d", n.Name(), n.id)
	}
	for i := 0; i < GPUsPerNode; i++ {
		if n.GPU(i) == nil {
			t.Fatalf("GPU %d missing", i)
		}
		if !n.GPU(i).Port().Connected() {
			t.Fatalf("GPU %d not attached", i)
		}
	}
	// DRAM holds exactly 128 GiB: the last byte is writable, the next is not.
	if err := n.rc.dram.Write(uint64(128*units.GiB)-1, []byte{1}); err != nil {
		t.Fatalf("last DRAM byte: %v", err)
	}
	if err := n.rc.dram.Write(uint64(128*units.GiB), []byte{1}); err == nil {
		t.Fatal("DRAM accepted a write past 128 GiB")
	}
}

func TestGPUBARWindowsDisjoint(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	for i := 0; i < GPUsPerNode; i++ {
		for j := i + 1; j < GPUsPerNode; j++ {
			if n.GPU(i).BAR1Window().Overlaps(n.GPU(j).BAR1Window()) {
				t.Fatalf("GPU %d and %d BAR windows overlap", i, j)
			}
		}
	}
}

func TestAllocDMABuffer(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	a, err := n.AllocDMABuffer(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(a)%4096 != 0 {
		t.Fatalf("DMA buffer %v not page aligned", a)
	}
	b, err := n.AllocDMABuffer(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if (pcie.Range{Base: a, Size: 64 * 1024}).Contains(b) {
		t.Fatal("DMA buffers overlap")
	}
	if _, err := n.AllocDMABuffer(0); err == nil {
		t.Fatal("zero-size DMA buffer accepted")
	}
}

func TestWriteReadLocal(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	data := []byte("host memory")
	if err := n.WriteLocal(0x4000, data); err != nil {
		t.Fatal(err)
	}
	got, err := n.ReadLocal(0x4000, units.ByteSize(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("local round trip corrupted")
	}
}

// attachSink attaches a recording device to a socket slot.
func attachSink(t *testing.T, n *Node, sock int, base pcie.Addr) *recDev {
	t.Helper()
	d := &recDev{name: "dev"}
	d.port = pcie.NewPort(d, "up", pcie.RoleEP)
	w := pcie.Range{Base: base, Size: 0x1000_0000}
	if err := n.AttachDevice(sock, "dev", w, d.port, pcie.LinkParams{Config: pcie.Gen2x8}); err != nil {
		t.Fatal(err)
	}
	return d
}

type recDev struct {
	name string
	port *pcie.Port
	got  []*pcie.TLP
	at   []sim.Time
}

func (d *recDev) DevName() string { return d.name }
func (d *recDev) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration {
	d.got = append(d.got, t)
	d.at = append(d.at, now)
	return 0
}

func TestStoreReachesDevice(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	n.Store(0x60_0000_0100, []byte{1, 2, 3, 4})
	eng.Run()
	if len(d.got) != 1 || d.got[0].Addr != 0x60_0000_0100 {
		t.Fatalf("device got %v", d.got)
	}
	// Path: store latency 150 ns + switch 120 ns + two link wires.
	if d.at[0] < sim.Time(270*units.Nanosecond) || d.at[0] > sim.Time(330*units.Nanosecond) {
		t.Fatalf("store arrived at %v, want ~280ns", d.at[0])
	}
}

func TestStoreToDRAMIsLocal(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	n.Store(0x1000, []byte{42})
	eng.Run()
	got, _ := n.ReadLocal(0x1000, 1)
	if got[0] != 42 {
		t.Fatal("store to DRAM did not land")
	}
}

func TestStoreSizeLimits(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized store did not panic")
		}
	}()
	n.Store(0x1000, make([]byte, 300))
}

func TestDeviceWritesDRAMAndPollDetects(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	buf, _ := n.AllocDMABuffer(4 * units.KiB)
	var detected sim.Time
	n.Poll(pcie.Range{Base: buf, Size: 4}, func(now sim.Time) { detected = now })
	// Device writes the polled flag.
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: buf, Data: []byte{1, 1, 1, 1}})
	eng.Run()
	if detected == 0 {
		t.Fatal("poll never detected the write")
	}
	got, _ := n.ReadLocal(buf, 4)
	if !bytes.Equal(got, []byte{1, 1, 1, 1}) {
		t.Fatal("flag bytes wrong")
	}
	// Arrival (wire ~7ns + switch 120ns + uplink) + detect 60 ns.
	if detected < sim.Time(180*units.Nanosecond) {
		t.Fatalf("poll detected at %v — detection latency missing", detected)
	}
}

func TestDeviceReadsDRAM(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	want := []byte("descriptor table bytes")
	buf, _ := n.AllocDMABuffer(4 * units.KiB)
	if err := n.WriteLocal(buf, want); err != nil {
		t.Fatal(err)
	}
	d.port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: buf, ReadLen: units.ByteSize(len(want)), Tag: 5, Requester: 9})
	eng.Run()
	var data []byte
	for _, c := range d.got {
		if c.Kind != pcie.CplD {
			t.Fatalf("device got %v", c.Kind)
		}
		if c.Tag != 5 || c.Requester != 9 {
			t.Fatal("completion lost tag/requester")
		}
		data = append(data, c.Data...)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("read returned %q, want %q", data, want)
	}
	// DRAM read latency must appear.
	if d.at[0] < sim.Time(DefaultParams.DRAMReadLatency) {
		t.Fatalf("completion at %v — DRAM latency missing", d.at[0])
	}
}

func TestCrossQPIWriteThrottled(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	// Write into GPU2's BAR (socket 1) from a socket-0 device: each TLP
	// pays the 800 ns QPI service — several hundred MB/s, not GB/s.
	g2 := n.GPU(2)
	ptr, _ := g2.MemAlloc(64 * units.KiB)
	tok, _ := g2.PointerGetAttribute(ptr)
	bus, _ := g2.Pin(tok)
	const tlps = 16
	for i := 0; i < tlps; i++ {
		d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: bus + pcie.Addr(i*256), Data: make([]byte, 256)})
	}
	end, _ := eng.Run()
	bw := units.Rate(tlps*256, units.Duration(end))
	if bw.MBps() > 500 {
		t.Fatalf("cross-QPI write bandwidth = %v, want few hundred MB/s", bw)
	}
	got, _ := g2.Memory().ReadBytes(uint64(ptr), tlps*256)
	for _, b := range got[:16] {
		if b != 0 {
			break
		}
	}
	_, _, qpi := n.rcStats()
	if qpi != tlps {
		t.Fatalf("QPI forwards = %d, want %d", qpi, tlps)
	}
}

// rcStats exposes root-complex counters to tests.
func (n *Node) rcStats() (uint64, uint64, uint64) {
	return n.rc.dramWrites, n.rc.dramReads, n.rc.qpiForward
}

func TestCrossQPIReadPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	g2 := n.GPU(2)
	ptr, _ := g2.MemAlloc(4 * units.KiB)
	tok, _ := g2.PointerGetAttribute(ptr)
	bus, _ := g2.Pin(tok)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-QPI P2P read did not panic")
		}
	}()
	d.port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: bus, ReadLen: 64, Tag: 1, Requester: 9})
	eng.Run()
}

func TestSameSocketP2PAvoidsRC(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	g0 := n.GPU(0)
	ptr, _ := g0.MemAlloc(4 * units.KiB)
	tok, _ := g0.PointerGetAttribute(ptr)
	bus, _ := g0.Pin(tok)
	payload := []byte("p2p within socket")
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: bus, Data: payload})
	eng.Run()
	got, _ := g0.Memory().ReadBytes(uint64(ptr), units.ByteSize(len(payload)))
	if !bytes.Equal(got, payload) {
		t.Fatal("P2P write did not land in GPU memory")
	}
	w, r, q := n.rcStats()
	if w != 0 || r != 0 || q != 0 {
		t.Fatalf("RC saw traffic (%d/%d/%d) for same-socket P2P", w, r, q)
	}
}

func TestAttachDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := &recDev{name: "x"}
	d.port = pcie.NewPort(d, "up", pcie.RoleEP)
	if err := n.AttachDevice(2, "x", pcie.Range{Base: 0x60_0000_0000, Size: 4096}, d.port, pcie.LinkParams{Config: pcie.Gen2x8}); err == nil {
		t.Fatal("bad socket accepted")
	}
	if err := n.AttachDevice(0, "x", pcie.Range{Base: 0x1000, Size: 4096}, d.port, pcie.LinkParams{Config: pcie.Gen2x8}); err == nil {
		t.Fatal("window overlapping DRAM accepted")
	}
}

func TestAllocDeviceIDUnique(t *testing.T) {
	eng := sim.NewEngine()
	n0 := NewNode(eng, 0, DefaultParams)
	n1 := NewNode(eng, 1, DefaultParams)
	seen := map[pcie.DeviceID]bool{}
	for i := 0; i < 10; i++ {
		for _, n := range []*Node{n0, n1} {
			id := n.AllocDeviceID()
			if seen[id] {
				t.Fatalf("duplicate device ID %d", id)
			}
			seen[id] = true
		}
	}
}

func TestRCStatsCount(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	buf, _ := n.AllocDMABuffer(4 * units.KiB)
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: buf, Data: make([]byte, 64)})
	d.port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: buf, ReadLen: 64, Tag: 1, Requester: 9})
	eng.Run()
	w, r, q := n.rcStats()
	if w != 1 || r != 1 || q != 0 {
		t.Fatalf("RC stats = %d/%d/%d", w, r, q)
	}
}

func TestMultipleWatchersFireIndependently(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	d := attachSink(t, n, 0, 0x60_0000_0000)
	buf, _ := n.AllocDMABuffer(4 * units.KiB)
	hitsA, hitsB := 0, 0
	n.Poll(pcie.Range{Base: buf, Size: 8}, func(sim.Time) { hitsA++ })
	n.Poll(pcie.Range{Base: buf + 0x100, Size: 8}, func(sim.Time) { hitsB++ })
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: buf, Data: make([]byte, 8)})
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: buf + 0x100, Data: make([]byte, 8)})
	d.port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: buf + 0x200, Data: make([]byte, 8)})
	eng.Run()
	if hitsA != 1 || hitsB != 1 {
		t.Fatalf("watchers fired %d/%d, want 1/1", hitsA, hitsB)
	}
}

func TestGPUSlotsAreGen2x16(t *testing.T) {
	// K20 boards are PCIe Gen2; the node must not grant them Gen3 lanes.
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	lp := n.GPU(0).Port().Link().Params()
	if lp.Config.Gen != pcie.Gen2 || lp.Config.Lanes != 16 {
		t.Fatalf("GPU slot is %v, want Gen2 x16", lp.Config)
	}
}

func TestStoreEmptyPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(eng, 0, DefaultParams)
	_ = eng
	defer func() {
		if recover() == nil {
			t.Fatal("empty store did not panic")
		}
	}()
	n.Store(0x1000, nil)
}
