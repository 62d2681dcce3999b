// Package tca is a deterministic, software-only reproduction of the
// Tightly Coupled Accelerators (TCA) architecture and its PEACH2 router
// chip (Hanawa, Kodama, Boku, Sato — "Tightly Coupled Accelerators
// Architecture for Minimizing Communication Latency among Accelerators",
// 2013).
//
// The package simulates, at packet granularity, everything the paper's
// evaluation touches: PCI Express Gen2 x8 links with real TLP framing
// overheads, the four-port PEACH2 chip with compare-only routing and a
// chaining DMA controller, GPUDirect-RDMA-style pinned GPU memory, dual-
// socket host nodes with a QPI penalty, ring / dual-ring / loopback
// sub-cluster topologies, and the conventional InfiniBand + MPI three-copy
// baseline. Every table and figure of the paper's §IV regenerates through
// the Experiments registry; see EXPERIMENTS.md for paper-vs-measured.
//
// Quick start:
//
//	cl, err := tca.NewCluster(4)             // a 4-node ring sub-cluster
//	src, _ := cl.AllocGPU(0, 0, 1<<20)       // pin 1 MiB on node0/GPU0
//	dst, _ := cl.AllocGPU(2, 1, 1<<20)       // pin 1 MiB on node2/GPU1
//	cl.MemcpyPeerSync(dst, 0, src, 0, 1<<20) // cudaMemcpyPeer across nodes
package tca

import (
	"fmt"

	"tca/internal/core"
	"tca/internal/sim"
	"tca/internal/tcanet"
)

// Cluster is a running TCA sub-cluster: the nodes, their PEACH2 chips, the
// global address plan, and a communicator — plus the simulation clock that
// stands in for wall time.
type Cluster struct {
	eng  *sim.Engine
	sc   *tcanet.SubCluster
	comm *core.Comm
}

// Option configures NewCluster.
type Option func(*config)

type config struct {
	params   tcanet.Params
	dualRing bool
	mode     core.DMAMode
}

// WithDualRing builds two rings of n/2 nodes coupled by Port S instead of
// one n-node ring (n must be even and ≥4).
func WithDualRing() Option { return func(c *config) { c.dualRing = true } }

// WithDMAMode selects the DMA controller generation: TwoPhase (the paper's
// current chip) or Pipelined (its announced successor).
func WithDMAMode(m DMAMode) Option { return func(c *config) { c.mode = m } }

// WithParams replaces the whole hardware parameter set; the default
// reproduces the paper's test environment.
func WithParams(p Params) Option { return func(c *config) { c.params = p } }

// NewCluster builds an n-node sub-cluster (2–16 nodes; the paper's basic
// unit is 8–16) with shortest-arc ring routing programmed into every chip.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	cfg := config{params: tcanet.DefaultParams, mode: core.Pipelined}
	for _, o := range opts {
		o(&cfg)
	}
	eng := sim.NewEngine()
	var sc *tcanet.SubCluster
	var err error
	if cfg.dualRing {
		if n%2 != 0 {
			return nil, fmt.Errorf("tca: dual ring needs an even node count, got %d", n)
		}
		sc, err = tcanet.BuildDualRing(eng, n/2, cfg.params)
	} else {
		sc, err = tcanet.BuildRing(eng, n, cfg.params)
	}
	if err != nil {
		return nil, err
	}
	comm, err := core.NewComm(sc)
	if err != nil {
		return nil, err
	}
	comm.SetMode(cfg.mode)
	return &Cluster{eng: eng, sc: sc, comm: comm}, nil
}

// Nodes reports the sub-cluster size.
func (c *Cluster) Nodes() int { return c.sc.Nodes() }

// Now reports the simulated time since construction.
func (c *Cluster) Now() Duration { return c.eng.Now().Elapsed() }

// Run drains all pending simulated work and returns the clock.
func (c *Cluster) Run() Duration {
	c.eng.Run()
	return c.Now()
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d Duration) { c.eng.RunFor(d) }

// Comm exposes the full communicator API for advanced use (descriptor
// chains, block-stride, flags).
func (c *Cluster) Comm() *Comm { return c.comm }

// SubCluster exposes the underlying fabric: nodes, chips, address plan.
func (c *Cluster) SubCluster() *SubCluster { return c.sc }

// AllocGPU allocates and GPUDirect-pins n bytes on (node, gpu); gpu must be
// 0 or 1, the two the PEACH2 board shares a socket with.
func (c *Cluster) AllocGPU(node, gpu int, n ByteSize) (GPUBuffer, error) {
	return c.comm.RegisterGPUBuffer(node, gpu, n)
}

// AllocHost allocates n bytes of DMA-capable host memory on node.
func (c *Cluster) AllocHost(node int, n ByteSize) (HostBuffer, error) {
	return c.comm.AllocHostBuffer(node, n)
}

// MemcpyPeer starts the cross-node cudaMemcpyPeer extension (§III-H); done
// fires at completion. Use MemcpyPeerSync to block the simulation on it.
func (c *Cluster) MemcpyPeer(dst GPUBuffer, dstOff ByteSize, src GPUBuffer, srcOff ByteSize, n ByteSize, done func(at Duration)) error {
	return c.comm.MemcpyPeer(dst, dstOff, src, srcOff, n, wrap(done))
}

// MemcpyPeerSync runs MemcpyPeer to completion and returns the transfer's
// simulated duration.
func (c *Cluster) MemcpyPeerSync(dst GPUBuffer, dstOff ByteSize, src GPUBuffer, srcOff ByteSize, n ByteSize) (Duration, error) {
	start := c.eng.Now()
	var end sim.Time
	if err := c.comm.MemcpyPeer(dst, dstOff, src, srcOff, n, func(now sim.Time) { end = now }); err != nil {
		return 0, err
	}
	c.eng.Run()
	if end == 0 {
		return 0, fmt.Errorf("tca: MemcpyPeer never completed")
	}
	return end.Sub(start), nil
}

// PIOPut stores data from node's CPU into any global TCA address — the
// lowest-latency path for short messages (§III-F1).
func (c *Cluster) PIOPut(node int, dst Addr, data []byte) error {
	return c.comm.PIOPut(node, dst, data)
}

// GlobalGPU translates (buffer, offset) to the sub-cluster-wide address
// other nodes write to.
func (c *Cluster) GlobalGPU(b GPUBuffer, off ByteSize) (Addr, error) {
	return c.comm.GlobalGPU(b, off)
}

// GlobalHost translates (buffer, offset) to the sub-cluster-wide address.
func (c *Cluster) GlobalHost(b HostBuffer, off ByteSize) (Addr, error) {
	return c.comm.GlobalHost(b, off)
}

// WriteGPU / ReadGPU / WriteHost / ReadHost move data between the test
// harness and simulated memories without charging simulated time.

// WriteGPU initializes GPU buffer contents.
func (c *Cluster) WriteGPU(b GPUBuffer, off ByteSize, data []byte) error {
	return c.comm.WriteGPU(b, off, data)
}

// ReadGPU reads GPU buffer contents.
func (c *Cluster) ReadGPU(b GPUBuffer, off, n ByteSize) ([]byte, error) {
	return c.comm.ReadGPU(b, off, n)
}

// WriteHost initializes host buffer contents.
func (c *Cluster) WriteHost(b HostBuffer, off ByteSize, data []byte) error {
	return c.comm.WriteHost(b, off, data)
}

// ReadHost reads host buffer contents.
func (c *Cluster) ReadHost(b HostBuffer, off, n ByteSize) ([]byte, error) {
	return c.comm.ReadHost(b, off, n)
}

// WriteFlag writes an 8-byte flag value from node's CPU to a global
// address — the notify half of TCA flag synchronization.
func (c *Cluster) WriteFlag(node int, dst Addr, value uint64) error {
	return c.comm.WriteFlag(node, dst, value)
}

// WaitFlag runs fn when the fabric writes into (buffer, offset) on the
// buffer's node — the wait half (a CPU polling loop, like §IV-B1 step 6).
// Waiting on the same (buffer, offset) again replaces fn: one poller each.
func (c *Cluster) WaitFlag(b HostBuffer, off ByteSize, fn func(at Duration)) {
	c.comm.WaitFlag(b.Node, b.Bus+Addr(off), wrap(fn))
}

// PutToHost copies n bytes from a local bus address on srcNode into a
// (possibly remote) host buffer via the source node's DMA controller.
func (c *Cluster) PutToHost(dst HostBuffer, dstOff ByteSize, srcNode int, srcBus Addr, n ByteSize, done func(at Duration)) error {
	return c.comm.PutToHost(dst, dstOff, srcNode, srcBus, n, wrap(done))
}

// PutBlockStride moves a strided region (Count blocks of BlockLen, source
// advancing SrcStride, destination DstStride) from a local bus address on
// srcNode to a global destination as one chained-DMA issue (§III-F2).
func (c *Cluster) PutBlockStride(srcNode int, srcBus Addr, dstGlobal Addr, bs BlockStride, done func(at Duration)) error {
	return c.comm.PutBlockStride(srcNode, srcBus, dstGlobal, bs, wrap(done))
}

func wrap(done func(at Duration)) func(sim.Time) {
	if done == nil {
		return nil
	}
	return func(now sim.Time) { done(now.Elapsed()) }
}
