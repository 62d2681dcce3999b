package core

import (
	"fmt"

	"tca/internal/gpu"
	"tca/internal/pcie"
	"tca/internal/units"
)

// HostBuffer is a registered region of one node's host memory, reachable
// both locally (bus address) and from the whole sub-cluster (global
// address).
type HostBuffer struct {
	Node int
	Bus  pcie.Addr
	Len  units.ByteSize
}

// AllocHostBuffer reserves DMA-capable host memory on a node.
func (c *Comm) AllocHostBuffer(node int, n units.ByteSize) (HostBuffer, error) {
	bus, err := c.driverOf(node).node.AllocDMABuffer(n)
	if err != nil {
		return HostBuffer{}, err
	}
	return HostBuffer{Node: node, Bus: bus, Len: n}, nil
}

// GlobalHost returns the sub-cluster-wide address of offset off inside the
// buffer.
func (c *Comm) GlobalHost(b HostBuffer, off units.ByteSize) (pcie.Addr, error) {
	if off < 0 || off >= b.Len {
		return 0, fmt.Errorf("core: offset %d outside host buffer of %v", off, b.Len)
	}
	return c.sc.GlobalHostAddr(b.Node, b.Bus+pcie.Addr(off))
}

// GPUBuffer is a GPU allocation that has gone through the full GPUDirect
// RDMA sequence (§IV-A2): allocated, tokenized, pinned into BAR1 — so both
// the local PEACH2 and, via the global map, every other node can reach it.
type GPUBuffer struct {
	Node int
	GPU  int
	Ptr  gpu.DevicePtr
	Bus  pcie.Addr
	Len  units.ByteSize
}

// RegisterGPUBuffer allocates n bytes on (node, gpuIdx) and pins them:
// cuMemAlloc → cuPointerGetAttribute(P2P_TOKENS) → P2P-driver pin.
func (c *Comm) RegisterGPUBuffer(node, gpuIdx int, n units.ByteSize) (GPUBuffer, error) {
	if gpuIdx < 0 || gpuIdx > 1 {
		return GPUBuffer{}, fmt.Errorf("core: GPU %d is across QPI — PEACH2 reaches GPU0/GPU1 only (§III-C)", gpuIdx)
	}
	g := c.driverOf(node).node.GPU(gpuIdx)
	ptr, err := g.MemAlloc(n)
	if err != nil {
		return GPUBuffer{}, err
	}
	tok, err := g.PointerGetAttribute(ptr)
	if err != nil {
		return GPUBuffer{}, err
	}
	bus, err := g.Pin(tok)
	if err != nil {
		return GPUBuffer{}, err
	}
	return GPUBuffer{Node: node, GPU: gpuIdx, Ptr: ptr, Bus: bus, Len: n}, nil
}

// GlobalGPU returns the sub-cluster-wide address of offset off inside the
// buffer.
func (c *Comm) GlobalGPU(b GPUBuffer, off units.ByteSize) (pcie.Addr, error) {
	if off < 0 || off >= b.Len {
		return 0, fmt.Errorf("core: offset %d outside GPU buffer of %v", off, b.Len)
	}
	return c.sc.GlobalGPUAddr(b.Node, b.GPU, b.Bus+pcie.Addr(off))
}

// WriteGPU initializes GPU buffer contents host-side (a cudaMemcpyHtoD
// whose cost the caller accounts separately via the CopyEngine when it
// matters; setup data for experiments lands directly).
func (c *Comm) WriteGPU(b GPUBuffer, off units.ByteSize, data []byte) error {
	g := c.driverOf(b.Node).node.GPU(b.GPU)
	return g.Memory().Write(uint64(b.Ptr)+uint64(off), data)
}

// ReadGPU reads GPU buffer contents for verification.
func (c *Comm) ReadGPU(b GPUBuffer, off units.ByteSize, n units.ByteSize) ([]byte, error) {
	g := c.driverOf(b.Node).node.GPU(b.GPU)
	return g.Memory().ReadBytes(uint64(b.Ptr)+uint64(off), n)
}

// ReadGPUInto is ReadGPU into buf, whose length is the byte count.
func (c *Comm) ReadGPUInto(b GPUBuffer, off units.ByteSize, buf []byte) error {
	g := c.driverOf(b.Node).node.GPU(b.GPU)
	return g.Memory().Read(uint64(b.Ptr)+uint64(off), buf)
}

// WriteHost initializes host buffer contents.
func (c *Comm) WriteHost(b HostBuffer, off units.ByteSize, data []byte) error {
	return c.driverOf(b.Node).node.WriteLocal(b.Bus+pcie.Addr(off), data)
}

// ReadHost reads host buffer contents for verification.
func (c *Comm) ReadHost(b HostBuffer, off, n units.ByteSize) ([]byte, error) {
	return c.driverOf(b.Node).node.ReadLocal(b.Bus+pcie.Addr(off), n)
}

// ReadHostInto is ReadHost into buf, whose length is the byte count.
func (c *Comm) ReadHostInto(b HostBuffer, off units.ByteSize, buf []byte) error {
	return c.driverOf(b.Node).node.ReadLocalInto(b.Bus+pcie.Addr(off), buf)
}

// ReadHostBus reads node-local host memory by raw bus address — what the
// CPU does before PIO-storing its own data somewhere else.
func (c *Comm) ReadHostBus(node int, bus pcie.Addr, n units.ByteSize) ([]byte, error) {
	return c.driverOf(node).node.ReadLocal(bus, n)
}
