package gpu

import (
	"bytes"
	"testing"
	"testing/quick"

	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

func testGPU(eng *sim.Engine) *GPU {
	g := New(eng, "gpu0", K20Params)
	g.SetBAR1Base(0x1_0000_0000)
	return g
}

func TestMemAllocAlignmentAndExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, "g", Params{Model: "t", MemorySize: 512 * units.KiB, BAR1Size: 256 * units.KiB})
	p1, err := g.MemAlloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p1)%uint64(PinPageSize) != 0 {
		t.Fatalf("allocation %#x not page aligned", uint64(p1))
	}
	p2, err := g.MemAlloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("overlapping allocations")
	}
	// 512 KiB total, page 0 reserved, two pages used: 5 pages left.
	for i := 0; i < 5; i++ {
		if _, err := g.MemAlloc(PinPageSize); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := g.MemAlloc(1); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	}
}

func TestMemAllocRejectsNonPositive(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	if _, err := g.MemAlloc(0); err == nil {
		t.Fatal("MemAlloc(0) succeeded")
	}
}

func TestGPUDirectPinSequence(t *testing.T) {
	// The four-step sequence from §IV-A2: alloc, get token, pin, access.
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, err := g.MemAlloc(128 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := g.PointerGetAttribute(ptr)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := g.Pin(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !g.BAR1Window().Contains(bus) {
		t.Fatalf("pinned address %v outside BAR1 %v", bus, g.BAR1Window())
	}
	// A write through the pinned bus address must land at the device ptr.
	port := pcie.NewPort(&fakeHost{}, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	payload := []byte("gpudirect rdma")
	port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: bus, Data: payload})
	eng.Run()
	got, err := g.Memory().ReadBytes(uint64(ptr), units.ByteSize(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("GDDR contains %q, want %q", got, payload)
	}
}

type fakeHost struct {
	got []*pcie.TLP
	at  []sim.Time
}

func (f *fakeHost) DevName() string { return "host" }
func (f *fakeHost) Accept(now sim.Time, t *pcie.TLP, p *pcie.Port) units.Duration {
	f.got = append(f.got, t)
	f.at = append(f.at, now)
	return 0
}

func TestPointerGetAttributeUnknownPtr(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	if _, err := g.PointerGetAttribute(DevicePtr(0xdead0000)); err == nil {
		t.Fatal("token for unknown pointer granted")
	}
}

func TestPinForeignTokenRejected(t *testing.T) {
	eng := sim.NewEngine()
	g1 := testGPU(eng)
	g2 := New(eng, "gpu1", K20Params)
	g2.SetBAR1Base(0x2_0000_0000)
	p, _ := g2.MemAlloc(64)
	tok, _ := g2.PointerGetAttribute(p)
	if _, err := g1.Pin(tok); err == nil {
		t.Fatal("pinning a foreign GPU's token succeeded")
	}
}

func TestPinWithoutBARBase(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, "g", K20Params)
	p, _ := g.MemAlloc(64)
	tok, _ := g.PointerGetAttribute(p)
	if _, err := g.Pin(tok); err == nil {
		t.Fatal("pin before BAR1 assignment succeeded")
	}
}

func TestPinBAR1Exhaustion(t *testing.T) {
	eng := sim.NewEngine()
	g := New(eng, "g", Params{Model: "t", MemorySize: 4 * units.MiB, BAR1Size: 2 * PinPageSize})
	g.SetBAR1Base(0x1000_0000)
	p1, _ := g.MemAlloc(2 * PinPageSize)
	tok1, _ := g.PointerGetAttribute(p1)
	if _, err := g.Pin(tok1); err != nil {
		t.Fatal(err)
	}
	p2, _ := g.MemAlloc(PinPageSize)
	tok2, _ := g.PointerGetAttribute(p2)
	if _, err := g.Pin(tok2); err == nil {
		t.Fatal("pin beyond BAR1 capacity succeeded")
	}
}

func TestUnpinnedAccessPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	port := pcie.NewPort(&fakeHost{}, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	defer func() {
		if recover() == nil {
			t.Fatal("write to unpinned BAR1 page did not panic")
		}
	}()
	port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: 0x1_0000_0000, Data: []byte{1}})
	eng.Run()
}

func TestBARReadSerializationCapsBandwidth(t *testing.T) {
	// 64 reads of 256 B through a 308 ns service unit must take ≈64×308 ns,
	// i.e. ~830 MB/s — the §IV-A2 ceiling.
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, _ := g.MemAlloc(64 * units.KiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	host := &fakeHost{}
	port := pcie.NewPort(host, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	const reads = 64
	for i := 0; i < reads; i++ {
		port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: bus + pcie.Addr(i*256), ReadLen: 256, Tag: uint8(i), Requester: 1})
	}
	end, _ := eng.Run()
	bw := units.Rate(reads*256, units.Duration(end))
	if bw.MBps() < 700 || bw.MBps() > 900 {
		t.Fatalf("inbound read bandwidth = %v, want ~830MB/s", bw)
	}
	var data units.ByteSize
	for _, c := range host.got {
		if c.Kind != pcie.CplD {
			t.Fatalf("host got %v", c.Kind)
		}
		data += c.PayloadLen()
	}
	if data != reads*256 {
		t.Fatalf("completions carried %d bytes, want %d", data, reads*256)
	}
}

func TestDeepWriteQueueNoBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, _ := g.MemAlloc(units.MiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	port := pcie.NewPort(&fakeHost{}, "dn", pcie.RoleRC)
	l := pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8, CreditTLPs: 2})
	for i := 0; i < 64; i++ {
		port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: bus + pcie.Addr(i*256), Data: make([]byte, 232)})
	}
	end, _ := eng.Run()
	// 64 × 256 B wire at 4 GB/s = 4096 ns, no stall.
	if end != sim.Time(4096*units.Nanosecond) {
		t.Fatalf("writes drained in %v, want 4096ns (wire rate)", end)
	}
	if l.QueuedTLPs(port) != 0 {
		t.Fatal("packets still queued")
	}
}

// Property: pin/translate round-trips for arbitrary offsets within an
// allocation.
func TestQuickPinTranslation(t *testing.T) {
	f := func(allocPages uint8, off uint32) bool {
		eng := sim.NewEngine()
		g := New(eng, "g", Params{Model: "t", MemorySize: 64 * units.MiB, BAR1Size: 32 * units.MiB})
		g.SetBAR1Base(0x4_0000_0000)
		pages := units.ByteSize(allocPages%16 + 1)
		size := pages * PinPageSize
		ptr, err := g.MemAlloc(size)
		if err != nil {
			return false
		}
		tok, err := g.PointerGetAttribute(ptr)
		if err != nil {
			return false
		}
		bus, err := g.Pin(tok)
		if err != nil {
			return false
		}
		o := uint64(off) % uint64(size)
		devOff, err := g.translate(bus + pcie.Addr(o))
		if err != nil {
			return false
		}
		return devOff == uint64(ptr)+o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyEngineHtoDDtoH(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	ce := NewCopyEngine(eng, K20CopyParams)
	ptr, _ := g.MemAlloc(4 * units.KiB)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	var up, down sim.Time
	var got []byte
	if err := ce.MemcpyHtoD(g, ptr, src, func(now sim.Time) { up = now }); err != nil {
		t.Fatal(err)
	}
	if err := ce.MemcpyDtoH(g, ptr, 4096, func(now sim.Time, data []byte) { down, got = now, data }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatal("round trip corrupted data")
	}
	// Each copy ≈ 7 µs setup + ~0.73 µs payload; second serializes after
	// the first.
	if up < sim.Time(7*units.Microsecond) {
		t.Fatalf("HtoD finished at %v — setup latency missing", up)
	}
	if down < up+sim.Time(7*units.Microsecond) {
		t.Fatalf("DtoH at %v did not serialize after HtoD at %v", down, up)
	}
}

func TestCopyEngineMemcpyPeer(t *testing.T) {
	eng := sim.NewEngine()
	a := testGPU(eng)
	b := New(eng, "gpu1", K20Params)
	b.SetBAR1Base(0x2_0000_0000)
	ce := NewCopyEngine(eng, K20CopyParams)
	pa, _ := a.MemAlloc(units.KiB)
	pb, _ := b.MemAlloc(units.KiB)
	want := []byte("peer to peer")
	if err := a.Memory().Write(uint64(pa), want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := ce.MemcpyPeer(b, pb, a, pa, units.ByteSize(len(want)), func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := b.Memory().ReadBytes(uint64(pb), units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("peer copy corrupted data")
	}
	if doneAt < sim.Time(7*units.Microsecond) {
		t.Fatalf("peer copy at %v — setup latency missing", doneAt)
	}
}

func TestCopyEngineValidation(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	ce := NewCopyEngine(eng, K20CopyParams)
	if err := ce.MemcpyHtoD(g, 0, nil, nil); err == nil {
		t.Fatal("empty HtoD accepted")
	}
	if err := ce.MemcpyDtoH(g, 0, 0, func(sim.Time, []byte) {}); err == nil {
		t.Fatal("zero DtoH accepted")
	}
	if err := ce.MemcpyDtoH(g, 0, 8, nil); err == nil {
		t.Fatal("DtoH without callback accepted")
	}
	if err := ce.MemcpyPeer(g, 0, g, 0, 0, nil); err == nil {
		t.Fatal("zero MemcpyPeer accepted")
	}
}

func TestGPUStatsCounters(t *testing.T) {
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, _ := g.MemAlloc(64 * units.KiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	host := &fakeHost{}
	port := pcie.NewPort(host, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	port.Send(0, &pcie.TLP{Kind: pcie.MWr, Addr: bus, Data: make([]byte, 128)})
	port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: bus, ReadLen: 64, Tag: 1, Requester: 1})
	eng.Run()
	w, r, in, out := g.writeTLPs, g.readTLPs, g.bytesIn, g.bytesOut
	if w != 1 || r != 1 || in != 128 || out != 64 {
		t.Fatalf("stats = %d/%d/%d/%d", w, r, in, out)
	}
}

func TestBARReadLatencyFloor(t *testing.T) {
	// A single read must take at least service + latency.
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, _ := g.MemAlloc(4 * units.KiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	host := &fakeHost{}
	port := pcie.NewPort(host, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: bus, ReadLen: 64, Tag: 1, Requester: 1})
	eng.Run()
	min := sim.Time(K20Params.BARReadService + K20Params.BARReadLatency)
	if host.at[0] < min {
		t.Fatalf("completion at %v, want >= %v", host.at[0], min)
	}
}

func TestBARReadServiceScalesWithRequestSize(t *testing.T) {
	// A 512 B request must cost two 256 B service units, keeping the
	// byte rate pinned regardless of request size.
	eng := sim.NewEngine()
	g := testGPU(eng)
	ptr, _ := g.MemAlloc(64 * units.KiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	host := &fakeHost{}
	port := pcie.NewPort(host, "dn", pcie.RoleRC)
	pcie.MustConnect(eng, port, g.Port(), pcie.LinkParams{Config: pcie.Gen2x8})
	const reads = 32
	for i := 0; i < reads; i++ {
		port.Send(0, &pcie.TLP{Kind: pcie.MRd, Addr: bus + pcie.Addr(i*512), ReadLen: 512, Tag: uint8(i), Requester: 1})
	}
	end, _ := eng.Run()
	bw := units.Rate(reads*512, units.Duration(end))
	if bw.MBps() < 700 || bw.MBps() > 900 {
		t.Fatalf("512B-request read bandwidth = %v, want the same ~830MB/s ceiling", bw)
	}
}
