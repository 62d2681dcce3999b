package tcanet

import (
	"bytes"
	"testing"

	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/units"
)

// TestDMAManyReadDescriptorsTagStarvation drives a 200-descriptor read
// chain: with only 16 outstanding-read tags the DMAC must recycle tags
// hundreds of times without losing or reordering data.
func TestDMAManyReadDescriptorsTagStarvation(t *testing.T) {
	eng, sc := buildRing(t, 2)
	const count = 200
	const size = 1024
	want := make([]byte, count*size)
	for i := range want {
		want[i] = byte(i*7 + i>>9)
	}
	src, _ := sc.Node(0).AllocDMABuffer(count * size)
	if err := sc.Node(0).WriteLocal(src, want); err != nil {
		t.Fatal(err)
	}
	var descs []peach2.Descriptor
	for i := 0; i < count; i++ {
		descs = append(descs, peach2.Descriptor{
			Kind: peach2.DescRead, Len: size,
			Src: uint64(src) + uint64(i*size),
			Dst: uint64(i * size),
		})
	}
	driveDMA(t, eng, sc, 0, descs)
	got, _ := sc.Chip(0).InternalMemory().ReadBytes(0, count*size)
	if !bytes.Equal(got, want) {
		t.Fatal("tag-starved read chain corrupted data")
	}
}

// TestDMAMixedChain runs writes and reads in one chain against disjoint
// regions; the hardware pipelines them concurrently and both must land.
func TestDMAMixedChain(t *testing.T) {
	eng, sc := buildRing(t, 2)
	wData := make([]byte, 4096)
	for i := range wData {
		wData[i] = byte(i * 3)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, wData); err != nil {
		t.Fatal(err)
	}
	rData := make([]byte, 4096)
	for i := range rData {
		rData[i] = byte(i * 5)
	}
	hostW, _ := sc.Node(0).AllocDMABuffer(4 * units.KiB)
	hostR, _ := sc.Node(0).AllocDMABuffer(4 * units.KiB)
	if err := sc.Node(0).WriteLocal(hostR, rData); err != nil {
		t.Fatal(err)
	}
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: 4096, Src: 0, Dst: uint64(hostW)},
		{Kind: peach2.DescRead, Len: 4096, Src: uint64(hostR), Dst: 0x10000},
	})
	gotW, _ := sc.Node(0).ReadLocal(hostW, 4096)
	if !bytes.Equal(gotW, wData) {
		t.Fatal("write leg corrupted")
	}
	gotR, _ := sc.Chip(0).InternalMemory().ReadBytes(0x10000, 4096)
	if !bytes.Equal(gotR, rData) {
		t.Fatal("read leg corrupted")
	}
}

// TestDMAUnalignedSizesAndOffsets sweeps awkward transfer geometries
// (sizes straddling page and payload boundaries at odd offsets).
func TestDMAUnalignedSizesAndOffsets(t *testing.T) {
	cases := []struct {
		size units.ByteSize
		off  uint64
	}{
		{1, 0}, {3, 4093}, {255, 1}, {257, 4095}, {4097, 2048}, {5000, 12345},
	}
	for _, c := range cases {
		eng, sc := buildRing(t, 2)
		want := make([]byte, c.size)
		for i := range want {
			want[i] = byte(i ^ 0xA5)
		}
		if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
			t.Fatal(err)
		}
		dstBuf, _ := sc.Node(1).AllocDMABuffer(64 * units.KiB)
		dst, _ := sc.GlobalHostAddr(1, dstBuf+pcie.Addr(c.off))
		driveDMA(t, eng, sc, 0, []peach2.Descriptor{
			{Kind: peach2.DescWrite, Len: c.size, Src: 0, Dst: uint64(dst)},
		})
		got, _ := sc.Node(1).ReadLocal(dstBuf+pcie.Addr(c.off), c.size)
		if !bytes.Equal(got, want) {
			t.Fatalf("size=%v off=%d corrupted", c.size, c.off)
		}
	}
}

// TestDMADoorbellWhileBusyPanics asserts the single-DMAC hardware
// constraint the driver's queueing exists to respect.
func TestDMADoorbellWhileBusyPanics(t *testing.T) {
	eng, sc := buildRing(t, 2)
	if err := sc.Chip(0).InternalMemory().Write(0, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	dst, _ := sc.Node(0).AllocDMABuffer(units.MiB)
	table := peach2.EncodeTable([]peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: units.MiB, Src: 0, Dst: uint64(dst)},
	})
	buf, _ := sc.Node(0).AllocDMABuffer(units.ByteSize(len(table)))
	if err := sc.Node(0).WriteLocal(buf, table); err != nil {
		t.Fatal(err)
	}
	regs := sc.Plan().InternalBlock(0).Base
	b8 := func(v uint64) []byte {
		out := make([]byte, 8)
		for i := range out {
			out[i] = byte(v >> (8 * i))
		}
		return out
	}
	sc.Node(0).Store(regs+pcie.Addr(peach2.RegDMATable), b8(uint64(buf)))
	sc.Node(0).Store(regs+pcie.Addr(peach2.RegDMACount), b8(1))
	// Second doorbell lands while the 1 MiB chain is still running.
	defer func() {
		if recover() == nil {
			t.Fatal("doorbell while busy did not panic")
		}
	}()
	sc.Node(0).Store(regs+pcie.Addr(peach2.RegDMACount), b8(1))
	eng.Run()
}

// TestDMAImmediateWithRemoteFlush verifies StartImmediate honours the
// flush-ack protocol for remote host targets.
func TestDMAImmediateWithRemoteFlush(t *testing.T) {
	eng, sc := buildRing(t, 2)
	want := []byte("immediate remote put")
	if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(1).AllocDMABuffer(4 * units.KiB)
	dst, _ := sc.GlobalHostAddr(1, dstBuf)
	var doneAt sim.Time
	sc.Chip(0).SetIRQHandler(func(now sim.Time) { doneAt = now })
	sc.Chip(0).DMAC().StartImmediate(eng.Now(), peach2.Descriptor{
		Kind: peach2.DescWrite, Len: units.ByteSize(len(want)), Src: 0, Dst: uint64(dst),
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("immediate chain never completed")
	}
	got, _ := sc.Node(1).ReadLocal(dstBuf, units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("immediate remote put corrupted data")
	}
	if chipCounter(t, sc, sc.Chip(1).DevName(), "flush_acks_sent") != 1 ||
		chipCounter(t, sc, sc.Chip(0).DevName(), "flush_acks_recv") != 1 {
		t.Fatal("flush ack missing on immediate remote put")
	}
}

// TestDMAWriteToBothGPUs checks both conversion entries (GPU0 and GPU1
// blocks map to different BAR windows).
func TestDMAWriteToBothGPUs(t *testing.T) {
	for g := 0; g < 2; g++ {
		eng, sc := buildRing(t, 2)
		gpu := sc.Node(1).GPU(g)
		ptr, _ := gpu.MemAlloc(64 * units.KiB)
		tok, _ := gpu.PointerGetAttribute(ptr)
		bus, _ := gpu.Pin(tok)
		dst, err := sc.GlobalGPUAddr(1, g, bus)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{1, 2, 3, 4, byte(g)}
		if err := sc.Chip(0).InternalMemory().Write(0, want); err != nil {
			t.Fatal(err)
		}
		driveDMA(t, eng, sc, 0, []peach2.Descriptor{
			{Kind: peach2.DescWrite, Len: units.ByteSize(len(want)), Src: 0, Dst: uint64(dst)},
		})
		got, _ := gpu.Memory().ReadBytes(uint64(ptr), units.ByteSize(len(want)))
		if !bytes.Equal(got, want) {
			t.Fatalf("GPU%d write corrupted", g)
		}
	}
}

// TestRemoteDMAReadRejected asserts the RDMA-put-only restriction at the
// DMAC level: a read descriptor whose source is a remote global address
// must panic rather than emit an MRd onto the ring.
func TestRemoteDMAReadRejected(t *testing.T) {
	eng, sc := buildRing(t, 2)
	remote, _ := sc.GlobalHostAddr(1, 0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("remote DMA read did not panic (RDMA put only, §III-F)")
		}
	}()
	driveDMA(t, eng, sc, 0, []peach2.Descriptor{
		{Kind: peach2.DescRead, Len: 64, Src: uint64(remote), Dst: 0},
	})
}

// TestChainedWriteFarNode sends a 255-burst across three hops and checks
// bandwidth stays in the local class (cut-through ring pipelining).
func TestChainedWriteFarNode(t *testing.T) {
	eng := sim.NewEngine()
	sc, err := BuildRing(eng, 8, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Chip(0).InternalMemory().Write(0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := sc.Node(4).AllocDMABuffer(255 * 4096)
	var descs []peach2.Descriptor
	for i := 0; i < 255; i++ {
		dst, _ := sc.GlobalHostAddr(4, dstBuf+pcie.Addr(i*4096))
		descs = append(descs, peach2.Descriptor{Kind: peach2.DescWrite, Len: 4096, Src: 0, Dst: uint64(dst)})
	}
	start := eng.Now()
	end := driveDMA(t, eng, sc, 0, descs)
	bw := units.Rate(255*4096, end.Sub(start))
	if bw.GBps() < 3.0 {
		t.Fatalf("4-hop chained write = %v — ring pipelining broken", bw)
	}
}
