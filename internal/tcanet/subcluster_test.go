package tcanet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/units"
)

// buildRing builds an instrumented n-node ring, so tests can read the
// chips' counters.
func buildRing(t *testing.T, n int) (*sim.Engine, *SubCluster) {
	t.Helper()
	eng := sim.NewEngine()
	sc, err := BuildRing(eng, n, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(obsv.NewSet(1024))
	return eng, sc
}

// chipCounter reads counter name of component comp from an instrumented
// sub-cluster's metrics.
func chipCounter(t *testing.T, sc *SubCluster, comp, name string, labels ...obsv.Label) uint64 {
	t.Helper()
	v, ok := sc.Observability().Registry().CounterValue(name, comp, labels...)
	if !ok {
		t.Fatalf("no %s counter for %s", name, comp)
	}
	return v
}

// forwarded reports how many TLPs chip i sent out of port.
func forwarded(t *testing.T, sc *SubCluster, i int, port peach2.PortID) uint64 {
	t.Helper()
	return chipCounter(t, sc, sc.Chip(i).DevName(), "port_tlps_out", obsv.Label{Key: "port", Value: port.String()})
}

func TestBuildRingTopology(t *testing.T) {
	_, sc := buildRing(t, 4)
	for i := 0; i < 4; i++ {
		chip := sc.Chip(i)
		if !chip.Port(peach2.PortN).Connected() {
			t.Fatalf("chip %d port N unconnected", i)
		}
		if !chip.Port(peach2.PortE).Connected() || !chip.Port(peach2.PortW).Connected() {
			t.Fatalf("chip %d ring ports unconnected", i)
		}
		if chip.Port(peach2.PortS).Connected() {
			t.Fatalf("chip %d port S connected on a plain ring", i)
		}
		next := sc.Chip((i + 1) % 4)
		if chip.Port(peach2.PortE).Peer() != next.Port(peach2.PortW) {
			t.Fatalf("chip %d E not cabled to chip %d W", i, (i+1)%4)
		}
	}
}

func TestPIOWriteToAdjacentNode(t *testing.T) {
	eng, sc := buildRing(t, 4)
	// Node 0's CPU stores into node 1's host block: the RDMA-put PIO of
	// §III-F1.
	dst, err := sc.GlobalHostAddr(1, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	sc.Node(0).Store(dst, []byte{0xAB, 0xCD})
	eng.Run()
	got, err := sc.Node(1).ReadLocal(0x8000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0xAB, 0xCD}) {
		t.Fatalf("remote host memory holds %v", got)
	}
}

func TestPIOWriteMultiHop(t *testing.T) {
	eng, sc := buildRing(t, 8)
	// Node 0 → node 3: three hops eastward.
	dst, _ := sc.GlobalHostAddr(3, 0x100)
	sc.Node(0).Store(dst, []byte{9})
	eng.Run()
	got, _ := sc.Node(3).ReadLocal(0x100, 1)
	if got[0] != 9 {
		t.Fatal("multi-hop PIO did not land")
	}
	// The intermediate chips forwarded it; the endpoints' stats show it.
	if forwarded(t, sc, 1, peach2.PortE) != 1 || forwarded(t, sc, 2, peach2.PortE) != 1 {
		t.Fatal("intermediate chips did not forward eastward")
	}
	if forwarded(t, sc, 3, peach2.PortN) != 1 {
		t.Fatal("destination chip did not deliver to its host")
	}
}

func TestPIOWriteWestwardShortestPath(t *testing.T) {
	eng, sc := buildRing(t, 8)
	// Node 0 → node 7 is one hop west, not seven east.
	dst, _ := sc.GlobalHostAddr(7, 0x100)
	sc.Node(0).Store(dst, []byte{1})
	eng.Run()
	got, _ := sc.Node(7).ReadLocal(0x100, 1)
	if got[0] != 1 {
		t.Fatal("westward PIO did not land")
	}
	if forwarded(t, sc, 0, peach2.PortW) != 1 {
		t.Fatal("packet did not leave westward")
	}
	for i := 1; i < 7; i++ {
		if forwarded(t, sc, i, peach2.PortE) != 0 && forwarded(t, sc, i, peach2.PortW) != 0 {
			t.Fatalf("chip %d forwarded on the long arc", i)
		}
	}
}

func TestPIOWriteToRemoteGPU(t *testing.T) {
	eng, sc := buildRing(t, 4)
	g := sc.Node(2).GPU(1)
	ptr, err := g.MemAlloc(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := g.PointerGetAttribute(ptr)
	bus, err := g.Pin(tok)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sc.GlobalGPUAddr(2, 1, bus)
	if err != nil {
		t.Fatal(err)
	}
	sc.Node(0).Store(dst+8, []byte{1, 2, 3, 4})
	eng.Run()
	got, _ := g.Memory().ReadBytes(uint64(ptr)+8, 4)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("GPU memory holds %v — GPUDirect path broken", got)
	}
}

// driveDMA runs a descriptor chain on node src's chip through the real
// driver path: table in host memory, RegDMATable + RegDMACount stores, IRQ
// completion. It returns the completion time.
func driveDMA(t *testing.T, eng *sim.Engine, sc *SubCluster, src int, descs []peach2.Descriptor) sim.Time {
	t.Helper()
	node := sc.Node(src)
	chip := sc.Chip(src)
	table := peach2.EncodeTable(descs)
	buf, err := node.AllocDMABuffer(units.ByteSize(len(table)))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.WriteLocal(buf, table); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	chip.SetIRQHandler(func(now sim.Time) { doneAt = now })
	regs := sc.Plan().InternalBlock(src).Base
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(buf))
	node.Store(regs+pcie.Addr(peach2.RegDMATable), b)
	c := make([]byte, 8)
	binary.LittleEndian.PutUint64(c, uint64(len(descs)))
	node.Store(regs+pcie.Addr(peach2.RegDMACount), c)
	eng.Run()
	if doneAt == 0 {
		t.Fatal("DMA chain never completed")
	}
	return doneAt
}

func TestDMAWriteLocalHost(t *testing.T) {
	eng, sc := buildRing(t, 2)
	// Fig. 7 shape: internal memory → local host buffer.
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	dst, _ := sc.Node(0).AllocDMABuffer(4 * units.KiB)
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 4096, Src: 0, Dst: uint64(dst)},
	})
	got, _ := sc.Node(0).ReadLocal(dst, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("local DMA write corrupted data")
	}
}

func TestDMAReadLocalHost(t *testing.T) {
	eng, sc := buildRing(t, 2)
	want := make([]byte, 2048)
	for i := range want {
		want[i] = byte(i ^ 0x5A)
	}
	src, _ := sc.Node(0).AllocDMABuffer(2 * units.KiB)
	if err := sc.Node(0).WriteLocal(src, want); err != nil {
		t.Fatal(err)
	}
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescRead, Len: 2048, Src: uint64(src), Dst: 0x100},
	})
	got, _ := sc.Chip(0).InternalMemory().ReadBytes(0x100, 2048)
	if !bytes.Equal(got, want) {
		t.Fatal("local DMA read corrupted data")
	}
}

func TestDMAWriteRemoteHost(t *testing.T) {
	eng, sc := buildRing(t, 4)
	want := make([]byte, 8192)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(2).AllocDMABuffer(8 * units.KiB)
	dst, _ := sc.GlobalHostAddr(2, dstBuf)
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 8192, Src: 0, Dst: uint64(dst)},
	})
	got, _ := sc.Node(2).ReadLocal(dstBuf, 8192)
	if !bytes.Equal(got, want) {
		t.Fatal("remote DMA write corrupted data")
	}
	// Remote host targets use the flush ack (§IV-B2 modelling).
	if n := chipCounter(t, sc, sc.Chip(2).DevName(), "flush_acks_sent"); n != 1 {
		t.Fatalf("remote chip sent %d acks, want 1", n)
	}
	if n := chipCounter(t, sc, sc.Chip(0).DevName(), "flush_acks_recv"); n != 1 {
		t.Fatalf("source chip received %d acks, want 1", n)
	}
}

func TestDMAWriteRemoteGPUNoFlush(t *testing.T) {
	eng, sc := buildRing(t, 2)
	g := sc.Node(1).GPU(0)
	ptr, _ := g.MemAlloc(64 * units.KiB)
	tok, _ := g.PointerGetAttribute(ptr)
	bus, _ := g.Pin(tok)
	dst, _ := sc.GlobalGPUAddr(1, 0, bus)
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i + 7)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 4096, Src: 0, Dst: uint64(dst)},
	})
	got, _ := g.Memory().ReadBytes(uint64(ptr), 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("remote GPU DMA corrupted data")
	}
	// Deep-queue GPU sinks complete without a flush ack.
	if chipCounter(t, sc, sc.Chip(1).DevName(), "flush_acks_sent") != 0 {
		t.Fatal("GPU-targeted chain used a flush ack")
	}
}

func TestDMATwoPhaseRemoteTransfer(t *testing.T) {
	// §IV-B2: "two phase operations are required. As the first phase,
	// data must be stored in the internal memory by DMA read, and in the
	// second phase, data in the internal memory is written to the CPU or
	// GPU memory on the other node."
	eng, sc := buildRing(t, 2)
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(3 * i)
	}
	srcBuf, _ := sc.Node(0).AllocDMABuffer(4 * units.KiB)
	if err := sc.Node(0).WriteLocal(srcBuf, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(1).AllocDMABuffer(4 * units.KiB)
	dst, _ := sc.GlobalHostAddr(1, dstBuf)
	// Descriptors within one chain pipeline concurrently (hardware has no
	// dependency tracking), so the two phases are two DMA activations —
	// which is exactly why the paper calls the procedure's performance
	// impact serious and proposes the pipelined DMAC.
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescRead, Len: 4096, Src: uint64(srcBuf), Dst: 0},
	})
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 4096, Src: 0, Dst: uint64(dst)},
	})
	got, _ := sc.Node(1).ReadLocal(dstBuf, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("two-phase transfer corrupted data")
	}
}

func TestDMAPipelinedRemoteTransfer(t *testing.T) {
	// The paper's future-work DMAC: one descriptor, source read and
	// remote write overlapped.
	eng, sc := buildRing(t, 2)
	want := make([]byte, 16384)
	for i := range want {
		want[i] = byte(i * 5)
	}
	srcBuf, _ := sc.Node(0).AllocDMABuffer(16 * units.KiB)
	if err := sc.Node(0).WriteLocal(srcBuf, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(1).AllocDMABuffer(16 * units.KiB)
	dst, _ := sc.GlobalHostAddr(1, dstBuf)
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescPipelined, Len: 16384, Src: uint64(srcBuf), Dst: uint64(dst)},
	})
	got, _ := sc.Node(1).ReadLocal(dstBuf, 16384)
	if !bytes.Equal(got, want) {
		t.Fatal("pipelined transfer corrupted data")
	}
}

func TestDMAChainMultipleDescriptors(t *testing.T) {
	eng, sc := buildRing(t, 2)
	const count = 16
	const size = 1024
	want := make([]byte, count*size)
	for i := range want {
		want[i] = byte(i * 11)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(1).AllocDMABuffer(count * size)
	var descs []peach2.Descriptor
	for i := 0; i < count; i++ {
		dst, _ := sc.GlobalHostAddr(1, dstBuf+pcie.Addr(i*size))
		descs = append(descs, peach2.Descriptor{
			Kind: peach2.DescWrite, Len: size, Src: uint64(i * size), Dst: uint64(dst),
		})
	}
	driveDMA(t, eng, sc, 0, descs)
	got, _ := sc.Node(1).ReadLocal(dstBuf, count*size)
	if !bytes.Equal(got, want) {
		t.Fatal("chained transfer corrupted data")
	}
	if chipCounter(t, sc, sc.Chip(0).DevName()+"/dmac", "dma_chains") != 1 {
		t.Fatal("chain counter wrong")
	}
}

func TestLoopbackPIOLatency(t *testing.T) {
	// §IV-B1 / Fig. 10: store through chip A, cable to chip B, B writes
	// host memory, the driver polls. Measured: "the transfer latency is
	// 782 nsec using the current FPGA logic implementation."
	eng := sim.NewEngine()
	lb, err := BuildLoopback(eng, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	flag, _ := lb.Node.AllocDMABuffer(64)
	dst := lb.Plan.HostBlock(0).Base + pcie.Addr(flag) // via A: routed E to B, B delivers to host
	var t0, t1 sim.Time
	lb.Node.Poll(pcie.Range{Base: flag, Size: 4}, func(now sim.Time) { t1 = now })
	t0 = eng.Now()
	lb.Node.Store(dst, []byte{1, 2, 3, 4})
	eng.Run()
	if t1 == 0 {
		t.Fatal("loopback write never observed")
	}
	lat := t1.Sub(t0)
	t.Logf("PIO loopback latency = %v", lat)
	if lat < 700*units.Nanosecond || lat > 900*units.Nanosecond {
		t.Fatalf("loopback latency %v outside the ~782ns class", lat)
	}
	got, _ := lb.Node.ReadLocal(flag, 4)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatal("loopback data corrupted")
	}
}

func TestDualRingRoutesAcrossS(t *testing.T) {
	eng := sim.NewEngine()
	sc, err := BuildDualRing(eng, 4, DefaultParams) // 8 nodes: 0–3 ring A, 4–7 ring B
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(obsv.NewSet(1024))
	// Node 1 (ring A) writes node 5 (ring B): must cross an S coupling.
	dst, _ := sc.GlobalHostAddr(5, 0x2000)
	sc.Node(1).Store(dst, []byte{0x77})
	eng.Run()
	got, _ := sc.Node(5).ReadLocal(0x2000, 1)
	if got[0] != 0x77 {
		t.Fatal("cross-ring write did not land")
	}
	if forwarded(t, sc, 1, peach2.PortS) != 1 {
		t.Fatal("packet did not cross Port S at the source")
	}
	// And within-ring traffic still works on ring B.
	dst2, _ := sc.GlobalHostAddr(6, 0x3000)
	sc.Node(5).Store(dst2, []byte{0x55})
	eng.Run()
	got2, _ := sc.Node(6).ReadLocal(0x3000, 1)
	if got2[0] != 0x55 {
		t.Fatal("ring-B write did not land")
	}
}

func TestDualRingValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := BuildDualRing(eng, 1, DefaultParams); err == nil {
		t.Fatal("k=1 dual ring accepted")
	}
}

func TestGlobalAddrValidation(t *testing.T) {
	_, sc := buildRing(t, 2)
	if _, err := sc.GlobalHostAddr(0, pcie.Addr(sc.Plan().BlockSize())); err == nil {
		t.Fatal("host address beyond block accepted")
	}
	if _, err := sc.GlobalGPUAddr(0, 2, 0); err == nil {
		t.Fatal("GPU 2 accepted (unreachable from PEACH2)")
	}
	if _, err := sc.GlobalGPUAddr(0, 0, 0x1234); err == nil {
		t.Fatal("address outside BAR1 accepted")
	}
}

func TestChipStateOnLiveRing(t *testing.T) {
	eng, sc := buildRing(t, 2)
	dst, _ := sc.GlobalHostAddr(1, 0x100)
	sc.Node(0).Store(dst, []byte{1})
	eng.RunFor(50 * units.Microsecond)
	c := sc.Chip(0)
	if !c.PortUp(peach2.PortN) || !c.PortUp(peach2.PortE) || !c.PortUp(peach2.PortW) {
		t.Fatalf("ring ports down: N=%t E=%t W=%t", c.PortUp(peach2.PortN), c.PortUp(peach2.PortE), c.PortUp(peach2.PortW))
	}
	if forwarded(t, sc, 0, peach2.PortE) == 0 {
		t.Fatal("chip stats missed forwarded traffic")
	}
}
