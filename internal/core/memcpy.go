package core

import (
	"fmt"

	"tca/internal/gpu"
	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/sim"
	"tca/internal/units"
)

// MemcpyPeer copies n bytes from (srcBuf+srcOff) to (dstBuf+dstOff) — the
// §III-H extension of cudaMemcpyPeer across nodes. Same-node copies use the
// CUDA peer path through the shared switch; cross-node copies run on the
// source node's PEACH2 in the communicator's DMA mode. done fires at
// completion (the DMA interrupt handler or the CUDA callback).
func (c *Comm) MemcpyPeer(dst GPUBuffer, dstOff units.ByteSize, src GPUBuffer, srcOff units.ByteSize, n units.ByteSize, done func(now sim.Time)) error {
	if err := checkSpan(dst.Len, dstOff, n); err != nil {
		return fmt.Errorf("core: dst: %w", err)
	}
	if err := checkSpan(src.Len, srcOff, n); err != nil {
		return fmt.Errorf("core: src: %w", err)
	}
	if src.Node == dst.Node {
		node := c.driverOf(src.Node).node
		return node.CopyEngine().MemcpyPeer(
			node.GPU(dst.GPU), dst.Ptr+gpu.DevicePtr(dstOff),
			node.GPU(src.GPU), src.Ptr+gpu.DevicePtr(srcOff), n, done)
	}
	dstGlobal, err := c.GlobalGPU(dst, dstOff)
	if err != nil {
		return err
	}
	return c.putFromLocal(src.Node, src.Bus+pcie.Addr(srcOff), dstGlobal, n, done)
}

// checkSpan validates [off, off+n) inside a buffer of length l.
func checkSpan(l, off, n units.ByteSize) error {
	if n <= 0 {
		return fmt.Errorf("non-positive length %d", n)
	}
	if off < 0 || off+n > l {
		return fmt.Errorf("span [%d, %d) outside buffer of %v", off, off+n, l)
	}
	return nil
}

// PutToHost copies n bytes from a local source buffer on srcNode into a
// (possibly remote) host buffer.
func (c *Comm) PutToHost(dst HostBuffer, dstOff units.ByteSize, srcNode int, srcBus pcie.Addr, n units.ByteSize, done func(now sim.Time)) error {
	if err := checkSpan(dst.Len, dstOff, n); err != nil {
		return fmt.Errorf("core: dst: %w", err)
	}
	dstGlobal, err := c.GlobalHost(dst, dstOff)
	if err != nil {
		return err
	}
	return c.putFromLocal(srcNode, srcBus, dstGlobal, n, done)
}

// PutFromInternal writes n bytes of srcNode's PEACH2 internal memory at
// intOff to a global destination — the raw put the paper's bandwidth
// experiments use (internal memory is the mandatory DMA-write source on the
// current DMAC, §IV-B2).
func (c *Comm) PutFromInternal(srcNode int, intOff uint64, dstGlobal pcie.Addr, n units.ByteSize, done func(now sim.Time)) error {
	return c.StartChain(srcNode, []peach2.Descriptor{
		{Kind: peach2.DescWrite, Len: n, Src: intOff, Dst: uint64(dstGlobal)},
	}, done)
}

// putFromLocal moves n bytes from a local bus address on srcNode to a
// global destination, honouring the communicator's DMA mode.
func (c *Comm) putFromLocal(srcNode int, srcBus pcie.Addr, dstGlobal pcie.Addr, n units.ByteSize, done func(now sim.Time)) error {
	if n <= 0 {
		return fmt.Errorf("core: non-positive put length %d", n)
	}
	switch c.mode {
	case Pipelined:
		return c.StartChain(srcNode, []peach2.Descriptor{
			{Kind: peach2.DescPipelined, Len: n, Src: uint64(srcBus), Dst: uint64(dstGlobal)},
		}, done)
	case TwoPhase:
		if n > scratchSize {
			return fmt.Errorf("core: %v exceeds the %v staging buffer", n, units.ByteSize(scratchSize))
		}
		// Phase 1: stage into internal memory; phase 2 (a second
		// activation, §IV-B2): write out to the remote node.
		return c.StartChain(srcNode, []peach2.Descriptor{
			{Kind: peach2.DescRead, Len: n, Src: uint64(srcBus), Dst: 0},
		}, func(sim.Time) {
			err := c.StartChain(srcNode, []peach2.Descriptor{
				{Kind: peach2.DescWrite, Len: n, Src: 0, Dst: uint64(dstGlobal)},
			}, done)
			if err != nil {
				panic(fmt.Sprintf("core: two-phase second activation: %v", err))
			}
		})
	default:
		return fmt.Errorf("core: unknown DMA mode %d", int(c.mode))
	}
}

// BlockStride describes a strided transfer: Count blocks of BlockLen bytes,
// the source advancing by SrcStride and the destination by DstStride per
// block — the multidimensional-array pattern the chaining DMAC was built
// for ("this helps to improve the stride access caused by multidimensional
// array data", §III-D).
type BlockStride struct {
	BlockLen  units.ByteSize
	Count     int
	SrcStride units.ByteSize
	DstStride units.ByteSize
}

// Validate checks the geometry.
func (bs BlockStride) Validate() error {
	if bs.BlockLen <= 0 || bs.Count <= 0 {
		return fmt.Errorf("core: block-stride with %v × %d blocks", bs.BlockLen, bs.Count)
	}
	if bs.SrcStride < bs.BlockLen || bs.DstStride < bs.BlockLen {
		return fmt.Errorf("core: strides (%v/%v) smaller than block %v overlap", bs.SrcStride, bs.DstStride, bs.BlockLen)
	}
	if bs.Count > MaxChain {
		return fmt.Errorf("core: %d blocks exceed the %d-descriptor table", bs.Count, MaxChain)
	}
	return nil
}

// PutBlockStride moves a strided region from a local bus address on srcNode
// to a global destination as one descriptor chain per direction — a single
// DMA issue for the whole pattern (§III-F2).
func (c *Comm) PutBlockStride(srcNode int, srcBus pcie.Addr, dstGlobal pcie.Addr, bs BlockStride, done func(now sim.Time)) error {
	if err := bs.Validate(); err != nil {
		return err
	}
	switch c.mode {
	case Pipelined:
		descs := make([]peach2.Descriptor, 0, bs.Count)
		for i := 0; i < bs.Count; i++ {
			descs = append(descs, peach2.Descriptor{
				Kind: peach2.DescPipelined,
				Len:  bs.BlockLen,
				Src:  uint64(srcBus) + uint64(i)*uint64(bs.SrcStride),
				Dst:  uint64(dstGlobal) + uint64(i)*uint64(bs.DstStride),
			})
		}
		return c.StartChain(srcNode, descs, done)
	case TwoPhase:
		total := bs.BlockLen * units.ByteSize(bs.Count)
		if total > scratchSize {
			return fmt.Errorf("core: %v exceeds the %v staging buffer", total, units.ByteSize(scratchSize))
		}
		reads := make([]peach2.Descriptor, 0, bs.Count)
		writes := make([]peach2.Descriptor, 0, bs.Count)
		for i := 0; i < bs.Count; i++ {
			stage := uint64(i) * uint64(bs.BlockLen)
			reads = append(reads, peach2.Descriptor{
				Kind: peach2.DescRead,
				Len:  bs.BlockLen,
				Src:  uint64(srcBus) + uint64(i)*uint64(bs.SrcStride),
				Dst:  stage,
			})
			writes = append(writes, peach2.Descriptor{
				Kind: peach2.DescWrite,
				Len:  bs.BlockLen,
				Src:  stage,
				Dst:  uint64(dstGlobal) + uint64(i)*uint64(bs.DstStride),
			})
		}
		return c.StartChain(srcNode, reads, func(sim.Time) {
			if err := c.StartChain(srcNode, writes, done); err != nil {
				panic(fmt.Sprintf("core: block-stride second activation: %v", err))
			}
		})
	default:
		return fmt.Errorf("core: unknown DMA mode %d", int(c.mode))
	}
}
