package core

import (
	"bytes"
	"testing"

	"tca/internal/obsv"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/tcanet"
	"tca/internal/units"
)

func newComm(t *testing.T, nodes int) (*sim.Engine, *Comm) {
	t.Helper()
	eng := sim.NewEngine()
	sc, err := tcanet.BuildRing(eng, nodes, tcanet.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	sc.Instrument(obsv.NewSet(1024))
	c, err := NewComm(sc)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// chains reports how many DMA chains chip 0 completed.
func chains(t *testing.T, c *Comm) uint64 {
	t.Helper()
	v, ok := c.SubCluster().Observability().Registry().CounterValue("dma_chains", c.SubCluster().Chip(0).DevName()+"/dmac")
	if !ok {
		t.Fatal("no dma_chains counter: the sub-cluster is not instrumented")
	}
	return v
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestMemcpyPeerCrossNodeTwoPhase(t *testing.T) {
	eng, c := newComm(t, 4)
	src, err := c.RegisterGPUBuffer(0, 0, 64*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.RegisterGPUBuffer(2, 1, 64*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(8192, 1)
	if err := c.WriteGPU(src, 0, want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := c.MemcpyPeer(dst, 0, src, 0, 8192, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("MemcpyPeer never completed")
	}
	got, _ := c.ReadGPU(dst, 0, 8192)
	if !bytes.Equal(got, want) {
		t.Fatal("cross-node GPU copy corrupted data")
	}
	// Two-phase = two activations = two chains on the source chip.
	if n := chains(t, c); n != 2 {
		t.Fatalf("two-phase used %d chains, want 2", n)
	}
}

func TestMemcpyPeerCrossNodePipelined(t *testing.T) {
	eng, c := newComm(t, 4)
	c.SetMode(Pipelined)
	src, _ := c.RegisterGPUBuffer(0, 0, 64*units.KiB)
	dst, _ := c.RegisterGPUBuffer(1, 0, 64*units.KiB)
	want := pattern(16384, 2)
	if err := c.WriteGPU(src, 0, want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := c.MemcpyPeer(dst, 0, src, 0, 16384, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("pipelined MemcpyPeer never completed")
	}
	got, _ := c.ReadGPU(dst, 0, 16384)
	if !bytes.Equal(got, want) {
		t.Fatal("pipelined GPU copy corrupted data")
	}
	if n := chains(t, c); n != 1 {
		t.Fatalf("pipelined used %d chains, want 1", n)
	}
}

func TestPipelinedFasterThanTwoPhase(t *testing.T) {
	// The reason the paper builds the new DMAC: one activation and
	// overlapped phases beat staging through internal memory.
	run := func(mode DMAMode) units.Duration {
		eng, c := newComm(t, 2)
		c.SetMode(mode)
		src, _ := c.RegisterGPUBuffer(0, 0, 256*units.KiB)
		dst, _ := c.RegisterGPUBuffer(1, 0, 256*units.KiB)
		if err := c.WriteGPU(src, 0, pattern(262144, 3)); err != nil {
			t.Fatal(err)
		}
		start := eng.Now()
		var end sim.Time
		if err := c.MemcpyPeer(dst, 0, src, 0, 256*units.KiB, func(now sim.Time) { end = now }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if end == 0 {
			t.Fatal("no completion")
		}
		return end.Sub(start)
	}
	two := run(TwoPhase)
	pipe := run(Pipelined)
	t.Logf("256KiB remote GPU put: two-phase %v, pipelined %v", two, pipe)
	if pipe >= two {
		t.Fatalf("pipelined (%v) not faster than two-phase (%v)", pipe, two)
	}
	// Pipelined ≈ max(read, write) while two-phase ≈ read + write; with a
	// GPU source the 830 MB/s read ceiling dominates both, so the gain
	// here is the write phase (~25%). The host-sourced case, where read
	// and write are balanced, approaches 2× — see bench.AblationDMAC.
	if float64(two) < 1.2*float64(pipe) {
		t.Fatalf("two-phase (%v) should be ≥1.2× pipelined (%v) at this size", two, pipe)
	}
}

func TestMemcpyPeerSameNodeUsesCUDAPath(t *testing.T) {
	eng, c := newComm(t, 2)
	src, _ := c.RegisterGPUBuffer(0, 0, 64*units.KiB)
	dst, _ := c.RegisterGPUBuffer(0, 1, 64*units.KiB)
	want := pattern(4096, 4)
	if err := c.WriteGPU(src, 0, want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := c.MemcpyPeer(dst, 0, src, 0, 4096, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got, _ := c.ReadGPU(dst, 0, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("same-node copy corrupted data")
	}
	// No DMA chain ran; the CUDA peer engine carries it.
	if chains(t, c) != 0 {
		t.Fatal("same-node copy used the PEACH2 DMAC")
	}
	if doneAt < sim.Time(7*units.Microsecond) {
		t.Fatalf("same-node copy at %v missed the CUDA setup cost", doneAt)
	}
}

func TestPutToHostRemote(t *testing.T) {
	eng, c := newComm(t, 2)
	srcBuf, err := c.AllocHostBuffer(0, 16*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	dstBuf, err := c.AllocHostBuffer(1, 16*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(10000, 5)
	if err := c.WriteHost(srcBuf, 0, want); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if err := c.PutToHost(dstBuf, 0, 0, srcBuf.Bus, units.ByteSize(len(want)), func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("PutToHost never completed")
	}
	got, _ := c.ReadHost(dstBuf, 0, units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("remote host put corrupted data")
	}
}

func TestPutFromInternal(t *testing.T) {
	eng, c := newComm(t, 2)
	want := pattern(4096, 6)
	if err := c.SubCluster().Chip(0).InternalMemory().Write(0x1000, want); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := c.AllocHostBuffer(1, 4*units.KiB)
	dst, _ := c.GlobalHost(dstBuf, 0)
	var doneAt sim.Time
	if err := c.PutFromInternal(0, 0x1000, dst, 4096, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("PutFromInternal never completed")
	}
	got, _ := c.ReadHost(dstBuf, 0, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("internal put corrupted data")
	}
}

func TestPIOPutAndFlags(t *testing.T) {
	eng, c := newComm(t, 4)
	dstBuf, _ := c.AllocHostBuffer(3, 4*units.KiB)
	dst, _ := c.GlobalHost(dstBuf, 0)
	want := pattern(600, 7) // splits into 3 stores
	var seen sim.Time
	c.WaitFlag(3, dstBuf.Bus+0x800, func(now sim.Time) { seen = now })
	if err := c.PIOPut(0, dst, want); err != nil {
		t.Fatal(err)
	}
	flagAddr, _ := c.GlobalHost(dstBuf, 0x800)
	if err := c.WriteFlag(0, flagAddr, 42); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if seen == 0 {
		t.Fatal("flag never observed")
	}
	got, _ := c.ReadHost(dstBuf, 0, units.ByteSize(len(want)))
	if !bytes.Equal(got, want) {
		t.Fatal("PIO put corrupted data")
	}
	fl, _ := c.ReadHost(dstBuf, 0x800, 8)
	if fl[0] != 42 {
		t.Fatalf("flag value = %d", fl[0])
	}
}

func TestChainQueueingSerializesOnDMAC(t *testing.T) {
	eng, c := newComm(t, 2)
	if err := c.SubCluster().Chip(0).InternalMemory().Write(0, pattern(8192, 8)); err != nil {
		t.Fatal(err)
	}
	dstBuf, _ := c.AllocHostBuffer(1, 8*units.KiB)
	dst, _ := c.GlobalHost(dstBuf, 0)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		err := c.PutFromInternal(0, uint64(i*2048), dst+pcie.Addr(i*2048), 2048, func(now sim.Time) {
			order = append(order, i)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("chains completed in order %v", order)
	}
	if chains(t, c) != 3 {
		t.Fatal("chain count wrong")
	}
}

func TestBlockStrideTwoPhase(t *testing.T) {
	eng, c := newComm(t, 2)
	// A 4×1 KiB halo column out of a 4 KiB-pitch array.
	srcBuf, _ := c.AllocHostBuffer(0, 64*units.KiB)
	dstBuf, _ := c.AllocHostBuffer(1, 64*units.KiB)
	bs := BlockStride{BlockLen: 1024, Count: 4, SrcStride: 4096, DstStride: 2048}
	var want [][]byte
	for i := 0; i < bs.Count; i++ {
		blk := pattern(1024, byte(10+i))
		want = append(want, blk)
		if err := c.WriteHost(srcBuf, units.ByteSize(i)*bs.SrcStride, blk); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := c.GlobalHost(dstBuf, 0)
	var doneAt sim.Time
	if err := c.PutBlockStride(0, srcBuf.Bus, dst, bs, func(now sim.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt == 0 {
		t.Fatal("block-stride never completed")
	}
	for i := 0; i < bs.Count; i++ {
		got, _ := c.ReadHost(dstBuf, units.ByteSize(i)*bs.DstStride, 1024)
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

func TestBlockStridePipelined(t *testing.T) {
	eng, c := newComm(t, 2)
	c.SetMode(Pipelined)
	srcBuf, _ := c.AllocHostBuffer(0, 64*units.KiB)
	dstBuf, _ := c.AllocHostBuffer(1, 64*units.KiB)
	bs := BlockStride{BlockLen: 512, Count: 8, SrcStride: 8192, DstStride: 512}
	for i := 0; i < bs.Count; i++ {
		if err := c.WriteHost(srcBuf, units.ByteSize(i)*bs.SrcStride, pattern(512, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := c.GlobalHost(dstBuf, 0)
	done := false
	if err := c.PutBlockStride(0, srcBuf.Bus, dst, bs, func(sim.Time) { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("pipelined block-stride never completed")
	}
	// The gather lands contiguous at the destination.
	for i := 0; i < bs.Count; i++ {
		got, _ := c.ReadHost(dstBuf, units.ByteSize(i)*512, 512)
		if !bytes.Equal(got, pattern(512, byte(i))) {
			t.Fatalf("gathered block %d corrupted", i)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	eng, c := newComm(t, 2)
	_ = eng
	if _, err := c.RegisterGPUBuffer(0, 2, 4096); err == nil {
		t.Fatal("GPU2 registration accepted")
	}
	if _, err := c.RegisterGPUBuffer(0, -1, 4096); err == nil {
		t.Fatal("negative GPU accepted")
	}
	src, _ := c.RegisterGPUBuffer(0, 0, 4096)
	dst, _ := c.RegisterGPUBuffer(1, 0, 4096)
	if err := c.MemcpyPeer(dst, 0, src, 0, 0, nil); err == nil {
		t.Fatal("zero-length copy accepted")
	}
	if err := c.MemcpyPeer(dst, 4000, src, 0, 200, nil); err == nil {
		t.Fatal("overflowing copy accepted")
	}
	if err := c.StartChain(0, nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if err := c.StartChain(0, make([]peach2.Descriptor, MaxChain+1), nil); err == nil {
		t.Fatal("oversized chain accepted")
	}
	bad := BlockStride{BlockLen: 1024, Count: 4, SrcStride: 512, DstStride: 2048}
	if err := bad.Validate(); err == nil {
		t.Fatal("overlapping stride accepted")
	}
	if err := c.PIOPut(0, 0x1000, nil); err == nil {
		t.Fatal("empty PIO put accepted")
	}
	if (TwoPhase).String() != "two-phase" || (Pipelined).String() != "pipelined" {
		t.Fatal("mode strings wrong")
	}
}
