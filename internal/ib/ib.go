// Package ib models the conventional cluster communication stack the TCA
// architecture competes with: an InfiniBand-class NIC per node on a
// full-bisection fat tree (§II-A), a verbs-like message layer, an MPI-like
// layer with eager/rendezvous semantics, and the three-step GPU-to-GPU path
// of §III-A:
//
//  1. copy from GPU memory to host memory through PCIe (cudaMemcpyDtoH),
//  2. copy from host to host through the interconnect (MPI),
//  3. copy from host memory to GPU memory through PCIe (cudaMemcpyHtoD).
//
// The model is functional (bytes move between the simulated host DRAMs and
// GDDRs) and timed analytically per message — protocol costs the TCA path
// eliminates, which is precisely the comparison the paper draws.
package ib

import (
	"fmt"

	"tca/internal/gpu"
	"tca/internal/host"
	"tca/internal/pcie"
	"tca/internal/sim"
	"tca/internal/units"
)

// Params is the fabric's cost model.
type Params struct {
	// Bandwidth is the effective per-direction NIC rate. QDR 4x signals
	// 10 Gb/s × 4 lanes with 8b/10b: 4 GB/s raw, ~3.2 GB/s effective.
	Bandwidth units.Bandwidth
	// NICLatency is HCA processing per message per side.
	NICLatency units.Duration
	// WireLatency is switch + cable flight time (one fat-tree hop).
	WireLatency units.Duration
	// MPIOverhead is the software stack's per-message cost on top of
	// verbs.
	MPIOverhead units.Duration
	// EagerThreshold is the MPI eager/rendezvous switch: larger messages
	// pay a request/acknowledge round trip before the data moves.
	EagerThreshold units.ByteSize
}

// QDRParams matches the HA-PACS base cluster's Mellanox ConnectX-3 QDR rail
// (Table I) with an MVAPICH-class MPI on top. The paper quotes "the latency
// of InfiniBand FDR with PCIe Gen3 x8 is announced as less than 1 µsec"
// (§IV-B1) for the raw verbs level; the MPI level adds its overhead.
var QDRParams = Params{
	Bandwidth:      3.2 * units.GBPerSec,
	NICLatency:     350 * units.Nanosecond,
	WireLatency:    250 * units.Nanosecond,
	MPIOverhead:    300 * units.Nanosecond,
	EagerThreshold: 12 * units.KiB,
}

// Fabric is a full-bisection interconnect among a set of nodes: each node
// has one NIC with independent transmit and receive engines; the core is
// never the bottleneck (fat tree with full bisection bandwidth, §II-A).
type Fabric struct {
	eng    *sim.Engine
	params Params
	nodes  []*host.Node
	tx     []sim.Serializer
	rx     []sim.Serializer

	messages uint64
	bytes    units.ByteSize
}

// NewFabric connects the nodes.
func NewFabric(eng *sim.Engine, nodes []*host.Node, params Params) (*Fabric, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("ib: fabric needs at least 2 nodes, got %d", len(nodes))
	}
	if params.Bandwidth <= 0 {
		return nil, fmt.Errorf("ib: non-positive bandwidth")
	}
	return &Fabric{
		eng:    eng,
		params: params,
		nodes:  nodes,
		tx:     make([]sim.Serializer, len(nodes)),
		rx:     make([]sim.Serializer, len(nodes)),
	}, nil
}

func (f *Fabric) checkRank(r int) error {
	if r < 0 || r >= len(f.nodes) {
		return fmt.Errorf("ib: rank %d outside fabric of %d", r, len(f.nodes))
	}
	return nil
}

// VerbsSend moves n bytes from src's host memory at srcBus to dst's host
// memory at dstBus — one RDMA-write-like verbs operation, no MPI overhead.
func (f *Fabric) VerbsSend(src, dst int, srcBus, dstBus pcie.Addr, n units.ByteSize, done func(now sim.Time)) error {
	return f.send(src, dst, srcBus, dstBus, n, 0, done)
}

// send is the common transfer path; extra is software overhead added on
// top of the hardware pipeline (MPI).
func (f *Fabric) send(src, dst int, srcBus, dstBus pcie.Addr, n units.ByteSize, extra units.Duration, done func(now sim.Time)) error {
	if err := f.checkRank(src); err != nil {
		return err
	}
	if err := f.checkRank(dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("ib: self-send from rank %d", src)
	}
	if n <= 0 {
		return fmt.Errorf("ib: send of %d bytes", n)
	}
	f.messages++
	f.bytes += n

	wire := units.TimeToSend(n, f.params.Bandwidth)
	now := f.eng.Now()
	// The transmit engine occupies for the serialization time; the
	// message then flies and occupies the receive engine.
	txStart := f.tx[src].Reserve(now.Add(extra+f.params.NICLatency), wire)
	arrive := txStart.Add(wire + f.params.WireLatency)
	rxStart := f.rx[dst].Reserve(arrive, f.params.NICLatency)
	complete := rxStart.Add(f.params.NICLatency)
	f.eng.At(complete, func() {
		data, err := f.nodes[src].ReadLocal(srcBus, n)
		if err != nil {
			panic(fmt.Sprintf("ib: source read: %v", err))
		}
		if err := f.nodes[dst].WriteLocal(dstBus, data); err != nil {
			panic(fmt.Sprintf("ib: destination write: %v", err))
		}
		if done != nil {
			done(f.eng.Now())
		}
	})
	return nil
}

// MPISend moves n bytes with MPI semantics: per-message software overhead,
// plus a rendezvous round trip above the eager threshold.
func (f *Fabric) MPISend(src, dst int, srcBus, dstBus pcie.Addr, n units.ByteSize, done func(now sim.Time)) error {
	extra := f.params.MPIOverhead
	if n > f.params.EagerThreshold {
		// Rendezvous: RTS/CTS round trip before the payload moves.
		extra += 2 * (f.params.NICLatency + f.params.WireLatency)
	}
	return f.send(src, dst, srcBus, dstBus, n, extra, done)
}

// Conventional is the pre-TCA GPU-to-GPU path: stage down to the host, ship
// with MPI, stage up to the GPU — "the latency caused by multiple memory
// copies severely degrades the performance, especially in the case of a
// short message" (§I).
type Conventional struct {
	fabric *Fabric
	// staging buffers per node, allocated lazily
	staging []pcie.Addr
	stageSz units.ByteSize
}

// NewConventional prepares per-node staging buffers of size each.
func NewConventional(f *Fabric, size units.ByteSize) (*Conventional, error) {
	c := &Conventional{fabric: f, staging: make([]pcie.Addr, len(f.nodes)), stageSz: size}
	for i, n := range f.nodes {
		buf, err := n.AllocDMABuffer(size)
		if err != nil {
			return nil, fmt.Errorf("ib: staging on node %d: %w", i, err)
		}
		c.staging[i] = buf
	}
	return c, nil
}

// GPUToGPU copies n bytes from (srcNode, srcGPU, srcPtr) to (dstNode,
// dstGPU, dstPtr) through the three-step conventional path.
func (c *Conventional) GPUToGPU(srcNode, srcGPU int, srcPtr gpu.DevicePtr, dstNode, dstGPU int, dstPtr gpu.DevicePtr, n units.ByteSize, done func(now sim.Time)) error {
	if n <= 0 || n > c.stageSz {
		return fmt.Errorf("ib: conventional copy of %d bytes (staging %v)", n, c.stageSz)
	}
	if err := c.fabric.checkRank(srcNode); err != nil {
		return err
	}
	if err := c.fabric.checkRank(dstNode); err != nil {
		return err
	}
	f := c.fabric
	sNode := f.nodes[srcNode]
	dNode := f.nodes[dstNode]
	// Step 1: GPU → host (cudaMemcpyDtoH).
	err := sNode.CopyEngine().MemcpyDtoH(sNode.GPU(srcGPU), srcPtr, n, func(now sim.Time, data []byte) {
		if err := sNode.WriteLocal(c.staging[srcNode], data); err != nil {
			panic(fmt.Sprintf("ib: staging write: %v", err))
		}
		// Step 2: host → host (MPI).
		err := f.MPISend(srcNode, dstNode, c.staging[srcNode], c.staging[dstNode], n, func(now sim.Time) {
			// Step 3: host → GPU (cudaMemcpyHtoD).
			data, err := dNode.ReadLocal(c.staging[dstNode], n)
			if err != nil {
				panic(fmt.Sprintf("ib: staging read: %v", err))
			}
			err = dNode.CopyEngine().MemcpyHtoD(dNode.GPU(dstGPU), dstPtr, data, done)
			if err != nil {
				panic(fmt.Sprintf("ib: HtoD: %v", err))
			}
		})
		if err != nil {
			panic(fmt.Sprintf("ib: MPI leg: %v", err))
		}
	})
	if err != nil {
		return fmt.Errorf("ib: DtoH leg: %w", err)
	}
	return nil
}
