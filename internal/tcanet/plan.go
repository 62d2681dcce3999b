// Package tcanet assembles TCA sub-clusters: it owns the global PCIe
// address plan of Fig. 4 (one large aligned region split into per-node
// windows, each subdivided into GPU0/GPU1/host/PEACH2-internal blocks),
// computes the compare-only routing register settings of Fig. 5, and wires
// host nodes and PEACH2 chips into ring, dual-ring and loopback topologies.
package tcanet

import (
	"fmt"

	"tca/internal/pcie"
	"tca/internal/peach2"
	"tca/internal/units"
)

// Fig. 4 constants: "PEACH2 reserves a relatively large address region
// (current implementation is 512 Gbytes)" set far above everything local.
const (
	// RegionBase is the bus address of the TCA global window. It is
	// aligned to its own size so routing can compare masked upper bits.
	RegionBase pcie.Addr = 0x80_0000_0000
	// RegionSize is the reserved window: 512 GiB.
	RegionSize uint64 = 512 << 30
	// BlocksPerNode is the per-node subdivision: GPU0, GPU1, host,
	// PEACH2 internal (Fig. 4).
	BlocksPerNode = 4
	// MaxNodes bounds a sub-cluster ("the basic unit is the sub-cluster,
	// which consists of eight to 16 nodes", §II-B).
	MaxNodes = 16
	// MinNodes allows the two-chip test rigs.
	MinNodes = 2
)

// Block indices within a node window, in address order.
const (
	BlockGPU0 = iota
	BlockGPU1
	BlockHost
	BlockInternal
)

// Plan is the sub-cluster's global address map. All windows are power-of-
// two sized and self-aligned, which is what lets every PEACH2 route by
// comparing masked upper address bits only (§III-E).
type Plan struct {
	nodes      int
	windowSize uint64
	blockSize  uint64
}

// NewPlan splits the region for n nodes.
func NewPlan(n int) (Plan, error) {
	if n < MinNodes || n > MaxNodes {
		return Plan{}, fmt.Errorf("tcanet: %d nodes outside [%d, %d]", n, MinNodes, MaxNodes)
	}
	pow2 := 1
	for pow2 < n {
		pow2 *= 2
	}
	w := RegionSize / uint64(pow2)
	return Plan{nodes: n, windowSize: w, blockSize: w / BlocksPerNode}, nil
}

// Region returns the whole TCA window.
func (p Plan) Region() pcie.Range {
	return pcie.Range{Base: RegionBase, Size: RegionSize}
}

// WindowSize reports the per-node window size.
func (p Plan) WindowSize() units.ByteSize { return units.ByteSize(p.windowSize) }

// BlockSize reports the per-device block size.
func (p Plan) BlockSize() units.ByteSize { return units.ByteSize(p.blockSize) }

func (p Plan) checkNode(i int) {
	if i < 0 || i >= p.nodes {
		panic(fmt.Sprintf("tcanet: node %d outside plan of %d", i, p.nodes))
	}
}

// NodeWindow returns node i's slice of the region.
func (p Plan) NodeWindow(i int) pcie.Range {
	p.checkNode(i)
	return pcie.Range{Base: RegionBase + pcie.Addr(uint64(i)*p.windowSize), Size: p.windowSize}
}

// Block returns block b (BlockGPU0..BlockInternal) of node i.
func (p Plan) Block(i, b int) pcie.Range {
	p.checkNode(i)
	if b < 0 || b >= BlocksPerNode {
		panic(fmt.Sprintf("tcanet: block %d out of range", b))
	}
	w := p.NodeWindow(i)
	return pcie.Range{Base: w.Base + pcie.Addr(uint64(b)*p.blockSize), Size: p.blockSize}
}

// GPUBlock returns the global window of node i's GPU g (0 or 1 — PEACH2
// reaches only the two same-socket GPUs, §III-C).
func (p Plan) GPUBlock(i, g int) pcie.Range {
	if g < 0 || g > 1 {
		panic(fmt.Sprintf("tcanet: GPU %d not reachable by PEACH2 (only GPU0/GPU1)", g))
	}
	return p.Block(i, BlockGPU0+g)
}

// HostBlock returns the global window of node i's host memory.
func (p Plan) HostBlock(i int) pcie.Range { return p.Block(i, BlockHost) }

// InternalBlock returns the global window of node i's PEACH2-internal
// region (registers, ack word, packet buffer).
func (p Plan) InternalBlock(i int) pcie.Range { return p.Block(i, BlockInternal) }

// AckAddr returns the global address of node i's flush-ack word.
func (p Plan) AckAddr(i int) pcie.Addr {
	return p.InternalBlock(i).Base + pcie.Addr(peach2.AckOffset)
}

// NodeOf reports which node's window contains a.
func (p Plan) NodeOf(a pcie.Addr) (int, bool) {
	if !p.Region().Contains(a) {
		return 0, false
	}
	i := int(uint64(a-RegionBase) / p.windowSize)
	if i >= p.nodes {
		return 0, false // inside the region but past the last node
	}
	return i, true
}

// ClassOf labels a global address with its device block — the uniform
// split of Fig. 4 makes this a pure shift, no table.
func (p Plan) ClassOf(a pcie.Addr) (peach2.BlockClass, bool) {
	if _, ok := p.NodeOf(a); !ok {
		return 0, false
	}
	switch uint64(a-RegionBase) % p.windowSize / p.blockSize {
	case BlockGPU0, BlockGPU1:
		return peach2.ClassGPU, true
	case BlockHost:
		return peach2.ClassHost, true
	default:
		return peach2.ClassInternal, true
	}
}

// RingRoutes computes node i's Fig. 5 routing registers for an n-node
// ring: every other node's window routes out E or W along the shorter arc
// (ties go east). Because windows are laid out in node order, each
// direction covers at most two contiguous address ranges, so at most four
// rules are needed — comfortably inside the eight register sets.
func (p Plan) RingRoutes(i int) []peach2.RouteRule {
	p.checkNode(i)
	n := p.nodes
	var east, west []int
	for d := 0; d < n; d++ {
		if d == i {
			continue
		}
		de := (d - i + n) % n
		dw := (i - d + n) % n
		if de <= dw {
			east = append(east, d)
		} else {
			west = append(west, d)
		}
	}
	mask := ^pcie.Addr(p.windowSize - 1)
	var rules []peach2.RouteRule
	for _, r := range idRanges(east) {
		rules = append(rules, peach2.RouteRule{
			Mask:  mask,
			Lower: p.NodeWindow(r[0]).Base,
			Upper: p.NodeWindow(r[1]).Base,
			Out:   peach2.PortE,
		})
	}
	for _, r := range idRanges(west) {
		rules = append(rules, peach2.RouteRule{
			Mask:  mask,
			Lower: p.NodeWindow(r[0]).Base,
			Upper: p.NodeWindow(r[1]).Base,
			Out:   peach2.PortW,
		})
	}
	return rules
}

// idRanges collapses a sorted id list into inclusive [first, last] runs.
func idRanges(ids []int) [][2]int {
	var runs [][2]int
	for _, id := range ids {
		if len(runs) > 0 && runs[len(runs)-1][1] == id-1 {
			runs[len(runs)-1][1] = id
			continue
		}
		runs = append(runs, [2]int{id, id})
	}
	return runs
}
